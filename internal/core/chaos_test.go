package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/scrub"
	"ecstore/internal/transport"
)

// TestConcurrentWritersNeverTear: many goroutines overwrite the same
// key while readers run; every read must return one writer's complete
// value, never a mix of two writes (stripe atomicity).
func TestConcurrentWritersNeverTear(t *testing.T) {
	cl, err := cluster.Start(cluster.Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := core.New(core.Config{
		Network:    cl.Network(),
		Servers:    cl.Addrs(),
		Resilience: core.ResilienceErasure,
		Scheme:     core.SchemeCECD,
		K:          3, M: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	makeValue := func(writer byte) []byte {
		return bytes.Repeat([]byte{writer}, 4096) // uniform: mixing is detectable
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := byte('A'); w <= 'D'; w++ {
		wg.Add(1)
		go func(w byte) {
			defer wg.Done()
			v := makeValue(w)
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.Set("contended", v)
				}
			}
		}(w)
	}
	var torn int
	for i := 0; i < 300; i++ {
		got, err := c.Get("contended")
		if err != nil {
			continue // first write may not have landed yet
		}
		for _, b := range got {
			if b != got[0] {
				torn++
				break
			}
		}
		if len(got) != 4096 && len(got) != 0 {
			torn++
		}
	}
	close(stop)
	wg.Wait()
	if torn != 0 {
		t.Fatalf("%d torn reads under concurrent writers", torn)
	}
}

// TestChaosKillRestartUnderLoad runs continuous traffic while servers
// are killed and restarted. The safety property: a Get either fails
// with an error or returns exactly the bytes that were last
// successfully Set — never corrupted or stale-torn data.
func TestChaosKillRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	cl, err := cluster.Start(cluster.Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := core.New(core.Config{
		Network:    cl.Network(),
		Servers:    cl.Addrs(),
		Resilience: core.ResilienceErasure,
		Scheme:     core.SchemeCECD,
		K:          3, M: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		workers  = 4
		keySpace = 16
		duration = 2 * time.Second
	)
	// lastGood[k] holds the seal of the last acknowledged write of
	// key k. Values embed the seal so reads self-describe which
	// write they came from.
	var lastGood [keySpace]atomic.Int64
	makeValue := func(key int, seal int64) []byte {
		prefix := []byte(fmt.Sprintf("key%d-seal%d-", key, seal))
		return append(prefix, bytes.Repeat([]byte{byte(seal)}, 2048)...)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var corrupt atomic.Int64
	var okReads, failedOps atomic.Int64

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			seal := int64(w) << 32
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := rng.Intn(keySpace)
				name := fmt.Sprintf("chaos-%d", key)
				if rng.Intn(2) == 0 {
					seal++
					if err := c.Set(name, makeValue(key, seal)); err != nil {
						failedOps.Add(1)
						continue
					}
					lastGood[key].Store(seal)
					continue
				}
				got, err := c.Get(name)
				if err != nil {
					failedOps.Add(1)
					continue
				}
				// The value must be a whole, internally consistent
				// write: prefix matches the seal pattern and the
				// body is uniform.
				var gk int
				var gs int64
				if n, _ := fmt.Sscanf(string(got), "key%d-seal%d-", &gk, &gs); n != 2 || gk != key {
					corrupt.Add(1)
					continue
				}
				if !bytes.Equal(got, makeValue(gk, gs)) {
					corrupt.Add(1)
					continue
				}
				okReads.Add(1)
			}
		}(w)
	}

	// The chaos monkey: kill and restart servers, never exceeding
	// M = 2 concurrent failures.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		deadline := time.Now().Add(duration)
		for time.Now().Before(deadline) {
			a := rng.Intn(5)
			b := (a + 1 + rng.Intn(4)) % 5
			cl.Kill(a)
			cl.Kill(b)
			time.Sleep(50 * time.Millisecond)
			_ = cl.Restart(a)
			_ = cl.Restart(b)
			time.Sleep(50 * time.Millisecond)
		}
		close(stop)
	}()
	wg.Wait()

	if n := corrupt.Load(); n != 0 {
		t.Fatalf("%d corrupted reads under chaos", n)
	}
	if okReads.Load() == 0 {
		t.Fatal("no successful reads at all; chaos test too aggressive to be meaningful")
	}
	t.Logf("chaos: %d clean reads, %d failed ops (failures are acceptable; corruption is not)",
		okReads.Load(), failedOps.Load())
}

// TestChaosScrubConvergence is the anti-entropy soak test: randomized
// Set/Get/Delete traffic runs against a hybrid-mode cluster while the
// chaos monkey kills/restarts servers and injects network faults
// (hangs, delays, cuts) through transport.Netem. When the faults stop,
// the scrubber must converge the keyspace — after a clean cycle, every
// surviving key verifies healthy and reads back byte-identical to a
// value that was actually written to it.
//
// Each worker owns a disjoint key range and records every value it
// ever ATTEMPTED to write (acknowledged or not) plus whether it ever
// attempted a delete; with kills and torn-off acks, any attempted
// value — or absence — is a legal final state, but a value nobody
// wrote is corruption.
func TestChaosScrubConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	netem := transport.NewNetem(transport.NewInproc(transport.Shape{}))
	cl, err := cluster.Start(cluster.Config{N: 5, Network: netem})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := core.New(core.Config{
		Network:    netem,
		Servers:    cl.Addrs(),
		Resilience: core.ResilienceHybrid,
		Replicas:   3, K: 3, M: 2,
		OpTimeout: 750 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addrs := cl.Addrs()

	const (
		workers      = 3
		keysPerOwner = 6
		duration     = 1500 * time.Millisecond
	)
	// makeValue is deterministic in (key, seal): the seal's parity
	// selects the hybrid path (small replicated vs large erasure-coded),
	// so possibility sets only need to remember seals.
	makeValue := func(key string, seal int64) []byte {
		prefix := []byte(fmt.Sprintf("%s-seal%d-", key, seal))
		size := 64
		if seal%2 == 1 {
			size = 16 << 10
		}
		return append(prefix, bytes.Repeat([]byte{byte(seal)}, size)...)
	}

	type keyState struct {
		attempted map[int64]bool // every seal a Set was ever issued for
		deleted   bool           // a Delete was ever issued
	}
	states := make([]map[string]*keyState, workers)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var corrupt, okOps atomic.Int64
	for w := 0; w < workers; w++ {
		states[w] = map[string]*keyState{}
		for i := 0; i < keysPerOwner; i++ {
			states[w][fmt.Sprintf("soak-%d-%d", w, i)] = &keyState{attempted: map[int64]bool{}}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			seal := int64(w+1) << 32
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("soak-%d-%d", w, rng.Intn(keysPerOwner))
				st := states[w][key]
				switch rng.Intn(4) {
				case 0, 1: // Set
					seal++
					st.attempted[seal] = true // recorded BEFORE the call: unacked writes may still land
					if err := c.Set(key, makeValue(key, seal)); err == nil {
						okOps.Add(1)
					}
				case 2: // Get: any attempted value (or nothing) is legal, corruption is not
					got, err := c.Get(key)
					if err != nil {
						continue
					}
					var gs int64
					if n, _ := fmt.Sscanf(string(got), key+"-seal%d-", &gs); n != 1 ||
						!st.attempted[gs] || !bytes.Equal(got, makeValue(key, gs)) {
						corrupt.Add(1)
						t.Errorf("chaos read of %q returned a value nobody wrote (%d bytes)", key, len(got))
						continue
					}
					okOps.Add(1)
				case 3: // Delete
					st.deleted = true
					if err := c.Delete(key); err == nil {
						okOps.Add(1)
					}
				}
			}
		}(w)
	}

	// Chaos monkey: interleave kill/restart waves with netem faults,
	// never exceeding M=2 concurrent server failures.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(42))
		deadline := time.Now().Add(duration)
		for time.Now().Before(deadline) {
			victim := rng.Intn(len(addrs))
			switch rng.Intn(4) {
			case 0: // crash-and-rejoin-empty
				cl.Kill(victim)
				time.Sleep(40 * time.Millisecond)
				_ = cl.Restart(victim)
			case 1: // network partition
				netem.Cut(addrs[victim])
				time.Sleep(40 * time.Millisecond)
				netem.Restore(addrs[victim])
			case 2: // hung connections (reads stall until the op deadline)
				netem.Hang(addrs[victim])
				time.Sleep(40 * time.Millisecond)
				netem.Restore(addrs[victim])
			case 3: // slow link
				netem.Delay(addrs[victim], 20*time.Millisecond)
				time.Sleep(40 * time.Millisecond)
				netem.Restore(addrs[victim])
			}
		}
	}()
	wg.Wait()

	// Faults over: heal the network, bring every server back.
	for i, addr := range addrs {
		netem.Restore(addr)
		if cl.Server(i) == nil {
			if err := cl.Restart(i); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The scrubber must converge: repeated cycles until one finds a
	// fully healthy keyspace (nothing repaired, nothing failed).
	daemon, err := scrub.New(scrub.Config{Client: c, Interval: -1, Rate: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	converged := false
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		report := daemon.RunCycle(nil)
		t.Logf("scrub: %s", report)
		if report.Err == nil && report.Failed == 0 && report.Repaired == 0 {
			converged = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !converged {
		t.Fatal("scrubber did not converge the keyspace after faults stopped")
	}

	// Converged keyspace: every surviving key verifies healthy and
	// reads byte-identical to some attempted write.
	survivors := 0
	for w := 0; w < workers; w++ {
		for key, st := range states[w] {
			got, err := c.Get(key)
			if errors.Is(err, core.ErrNotFound) {
				continue // deleted, or every holder of it was killed
			}
			if err != nil {
				t.Errorf("post-convergence read of %q: %v", key, err)
				continue
			}
			survivors++
			var gs int64
			if n, _ := fmt.Sscanf(string(got), key+"-seal%d-", &gs); n != 1 ||
				!st.attempted[gs] || !bytes.Equal(got, makeValue(key, gs)) {
				t.Errorf("post-convergence read of %q is not an attempted value (%d bytes)", key, len(got))
			}
			requireConverged(t, c, key)
		}
	}
	if corrupt.Load() != 0 {
		t.Fatalf("%d corrupted reads during chaos", corrupt.Load())
	}
	if okOps.Load() == 0 {
		t.Fatal("no operation ever succeeded; chaos too aggressive to be meaningful")
	}
	t.Logf("chaos soak: %d successful ops, %d surviving keys verified healthy", okOps.Load(), survivors)
}
