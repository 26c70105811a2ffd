// Degraded-reads: a tour of the failure-handling surface — the
// non-blocking API under failures, every erasure scheme's behaviour
// with dead servers, server restarts, and the hybrid
// replication/erasure policy from the paper's future work.
//
//	go run ./examples/degraded-reads
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cl, err := cluster.Start(cluster.Config{N: 5})
	if err != nil {
		return err
	}
	defer cl.Close()

	value := bytes.Repeat([]byte("resilience!"), 2000) // ~22 KB

	// Every erasure scheme placement survives M=2 failures.
	for _, scheme := range []core.Scheme{
		core.SchemeCECD, core.SchemeSESD, core.SchemeSECD,
	} {
		client, err := core.New(core.Config{
			Network:    cl.Network(),
			Servers:    cl.Addrs(),
			Resilience: core.ResilienceErasure,
			Scheme:     scheme,
			K:          3, M: 2,
		})
		if err != nil {
			return err
		}
		key := "demo-" + scheme.String()
		if err := client.Set(key, value); err != nil {
			client.Close()
			return err
		}
		client.Close()
	}

	client, err := core.New(core.Config{
		Network:    cl.Network(),
		Servers:    cl.Addrs(),
		Resilience: core.ResilienceErasure,
		Scheme:     core.SchemeCECD,
		K:          3, M: 2,
	})
	if err != nil {
		return err
	}
	defer client.Close()

	// Non-blocking reads with completion testing (memcached_test).
	cl.Kill(2)
	cl.Kill(4)
	fmt.Println("killed servers 2 and 4")
	futures := map[string]*core.Future{}
	for _, scheme := range []string{"era-ce-cd", "era-se-sd", "era-se-cd"} {
		futures["demo-"+scheme] = client.IGet("demo-" + scheme)
	}
	for key, f := range futures {
		got, err := f.Wait()
		status := "recovered"
		if err != nil || !bytes.Equal(got, value) {
			status = fmt.Sprintf("FAILED (%v)", err)
		}
		fmt.Printf("  %-16s %s (Test()=%v after Wait)\n", key, status, f.Test())
	}

	// A third failure exceeds RS(3,2): reads fail loudly, not
	// silently.
	cl.Kill(0)
	fmt.Println("killed server 0 (now 3 of 5 down — beyond M=2)")
	if _, err := client.Get("demo-era-ce-cd"); errors.Is(err, core.ErrUnavailable) {
		fmt.Println("  read correctly failed with ErrUnavailable")
	} else {
		return fmt.Errorf("expected ErrUnavailable, got %v", err)
	}

	// Recovery: restart the servers. They come back EMPTY — the
	// store is a volatile cache, so three simultaneous failures lost
	// that stripe for good (only two chunks survive on servers 1 and
	// 3). The read still fails until the value is written again.
	for _, i := range []int{0, 2, 4} {
		if err := cl.Restart(i); err != nil {
			return err
		}
	}
	fmt.Println("restarted all servers (restarted nodes come back empty)")
	if _, err := client.Get("demo-era-ce-cd"); errors.Is(err, core.ErrUnavailable) {
		fmt.Println("  read still unavailable: only 2 chunks survived 3 concurrent failures")
	} else if err != nil {
		return fmt.Errorf("read after restart: %v", err)
	}
	if err := client.Set("demo-era-ce-cd", value); err != nil {
		return err
	}
	if got, err := client.Get("demo-era-ce-cd"); err != nil || !bytes.Equal(got, value) {
		return fmt.Errorf("read after re-write: %v", err)
	}
	fmt.Println("  re-write restored the full 5-chunk stripe; read succeeds again")

	// The hybrid future-work policy: values below 16 KiB replicate
	// (cheap single-round-trip reads), larger ones erasure-code (memory
	// efficiency).
	hybrid, err := core.New(core.Config{
		Network:    cl.Network(),
		Servers:    cl.Addrs(),
		Resilience: core.ResilienceHybrid,
		Replicas:   3,
		K:          3, M: 2,
	})
	if err != nil {
		return err
	}
	defer hybrid.Close()
	if err := hybrid.Set("session:123", []byte("small-session-token")); err != nil {
		return err
	}
	if err := hybrid.Set("blob:456", value); err != nil {
		return err
	}
	small, _ := hybrid.Get("session:123")
	large, _ := hybrid.Get("blob:456")
	fmt.Printf("hybrid policy: %q replicated, %d-byte blob erasure-coded; both readable\n",
		small, len(large))
	return nil
}
