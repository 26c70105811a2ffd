package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/wire"
)

// startCluster launches an n-server cluster and registers cleanup.
func startCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.Start(cluster.Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func newClient(t *testing.T, cl *cluster.Cluster, cfg core.Config) *core.Client {
	t.Helper()
	cfg.Network = cl.Network()
	cfg.Servers = cl.Addrs()
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// allModes enumerates every resilience configuration under test.
func allModes() map[string]core.Config {
	return map[string]core.Config{
		"none":      {Resilience: core.ResilienceNone},
		"sync-rep":  {Resilience: core.ResilienceSyncRep, Replicas: 3},
		"async-rep": {Resilience: core.ResilienceAsyncRep, Replicas: 3},
		"era-ce-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2},
		"era-se-sd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeSESD, K: 3, M: 2},
		"era-se-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeSECD, K: 3, M: 2},
		"hybrid":    {Resilience: core.ResilienceHybrid, Replicas: 3, K: 3, M: 2},
	}
}

func TestSetGetDeleteAllModes(t *testing.T) {
	cl := startCluster(t, 5)
	sizes := []int{0, 1, 13, 512, 4 << 10, 100 << 10}
	for name, cfg := range allModes() {
		t.Run(name, func(t *testing.T) {
			c := newClient(t, cl, cfg)
			rng := rand.New(rand.NewSource(1))
			for _, size := range sizes {
				key := fmt.Sprintf("%s-key-%d", name, size)
				value := make([]byte, size)
				rng.Read(value)
				if err := c.Set(key, value); err != nil {
					t.Fatalf("Set %d bytes: %v", size, err)
				}
				got, err := c.Get(key)
				if err != nil {
					t.Fatalf("Get %d bytes: %v", size, err)
				}
				if !bytes.Equal(got, value) {
					t.Fatalf("Get %d bytes: value differs (got %d bytes)", size, len(got))
				}
				if err := c.Delete(key); err != nil {
					t.Fatalf("Delete: %v", err)
				}
				if _, err := c.Get(key); !errors.Is(err, core.ErrNotFound) {
					t.Fatalf("Get after Delete: %v, want ErrNotFound", err)
				}
			}
		})
	}
}

func TestGetMissingKey(t *testing.T) {
	cl := startCluster(t, 5)
	for name, cfg := range allModes() {
		t.Run(name, func(t *testing.T) {
			c := newClient(t, cl, cfg)
			if _, err := c.Get("never-set-" + name); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("got %v, want ErrNotFound", err)
			}
		})
	}
}

func TestOverwrite(t *testing.T) {
	cl := startCluster(t, 5)
	for name, cfg := range allModes() {
		t.Run(name, func(t *testing.T) {
			c := newClient(t, cl, cfg)
			key := "ow-" + name
			if err := c.Set(key, []byte("first")); err != nil {
				t.Fatal(err)
			}
			second := bytes.Repeat([]byte("second!"), 1000)
			if err := c.Set(key, second); err != nil {
				t.Fatal(err)
			}
			got, err := c.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, second) {
				t.Fatal("overwrite not visible")
			}
		})
	}
}

// TestOverwriteIsOneRound pins that an erasure-coded overwrite reads
// nothing first: overwriting a 256 KB era-ce-cd key is one round of K+M
// chunk writes — exactly 5 set-chunk and no get-chunk ops at the
// servers — for a client without a near cache and for one with a near
// cache that holds the key.
func TestOverwriteIsOneRound(t *testing.T) {
	cl := startCluster(t, 5)
	rng := rand.New(rand.NewSource(8))
	serverOps := func(op string) (n int64) {
		for i := range cl.Addrs() {
			n += cl.Server(i).Metrics().Snapshot().Counter(`ecstore_server_ops_total{op="` + op + `"}`)
		}
		return n
	}
	for name, cacheBytes := range map[string]int64{"no-cache": 0, "near-cache": 64 << 20} {
		t.Run(name, func(t *testing.T) {
			cfg := allModes()["era-ce-cd"]
			cfg.CacheBytes = cacheBytes
			c := newClient(t, cl, cfg)
			key := "ow-round-" + name
			v1, v2 := make([]byte, 256<<10), make([]byte, 256<<10)
			rng.Read(v1)
			rng.Read(v2)
			if err := c.Set(key, v1); err != nil {
				t.Fatal(err)
			}
			sets, gets := serverOps("set-chunk"), serverOps("get-chunk")
			if err := c.Set(key, v2); err != nil {
				t.Fatal(err)
			}
			if n := serverOps("set-chunk") - sets; n != 5 {
				t.Errorf("overwrite: %d set-chunk ops at the servers, want K+M = 5", n)
			}
			if n := serverOps("get-chunk") - gets; n != 0 {
				t.Errorf("overwrite: %d get-chunk ops at the servers, want 0", n)
			}
			if got, _ := newClient(t, cl, allModes()["era-ce-cd"]).Get(key); !bytes.Equal(got, v2) {
				t.Fatal("overwrite did not land")
			}
		})
	}
}

func TestNonBlockingPipeline(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, Window: 8,
	})
	const n = 100
	value := bytes.Repeat([]byte("x"), 4096)
	sets := make([]*core.Future, n)
	for i := range sets {
		sets[i] = c.ISet(fmt.Sprintf("pipe-%d", i), value)
	}
	if err := core.WaitAll(sets...); err != nil {
		t.Fatal(err)
	}
	gets := make([]*core.Future, n)
	for i := range gets {
		gets[i] = c.IGet(fmt.Sprintf("pipe-%d", i))
	}
	for i, f := range gets {
		got, err := f.Wait()
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("get %d: value differs", i)
		}
	}
}

func TestFutureTest(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceNone})
	f := c.ISet("k", []byte("v"))
	if _, err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if !f.Test() {
		t.Fatal("Test() false after Wait()")
	}
	select {
	case <-f.Done():
	default:
		t.Fatal("Done() not closed after completion")
	}
}

func TestDegradedReadsErasure(t *testing.T) {
	// RS(3,2) tolerates two failures; every scheme must serve reads
	// with two servers down (Figure 8(c)'s scenario).
	for _, scheme := range []core.Scheme{core.SchemeCECD, core.SchemeSESD, core.SchemeSECD} {
		t.Run(scheme.String(), func(t *testing.T) {
			cl := startCluster(t, 5)
			c := newClient(t, cl, core.Config{
				Resilience: core.ResilienceErasure, Scheme: scheme, K: 3, M: 2,
			})
			rng := rand.New(rand.NewSource(2))
			values := map[string][]byte{}
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("deg-%d", i)
				v := make([]byte, 1000+i*100)
				rng.Read(v)
				values[key] = v
				if err := c.Set(key, v); err != nil {
					t.Fatal(err)
				}
			}
			cl.Kill(0)
			cl.Kill(3)
			for key, want := range values {
				got, err := c.Get(key)
				if err != nil {
					t.Fatalf("degraded Get %s: %v", key, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("degraded Get %s: value differs", key)
				}
			}
		})
	}
}

func TestTooManyFailuresErasure(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if err := c.Set("k", bytes.Repeat([]byte("v"), 5000)); err != nil {
		t.Fatal(err)
	}
	cl.Kill(0)
	cl.Kill(1)
	cl.Kill(2)
	if _, err := c.Get("k"); !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
}

func TestDegradedReadsReplication(t *testing.T) {
	for _, mode := range []core.Resilience{core.ResilienceSyncRep, core.ResilienceAsyncRep} {
		t.Run(mode.String(), func(t *testing.T) {
			cl := startCluster(t, 5)
			c := newClient(t, cl, core.Config{Resilience: mode, Replicas: 3})
			values := map[string][]byte{}
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("rep-%d", i)
				v := bytes.Repeat([]byte{byte(i)}, 500)
				values[key] = v
				if err := c.Set(key, v); err != nil {
					t.Fatal(err)
				}
			}
			// Three-way replication tolerates two failures.
			cl.Kill(1)
			cl.Kill(4)
			for key, want := range values {
				got, err := c.Get(key)
				if err != nil {
					t.Fatalf("degraded Get %s: %v", key, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("degraded Get %s: value differs", key)
				}
			}
		})
	}
}

func TestWritesWithFailedServersErasure(t *testing.T) {
	// With one server down, CE schemes cannot place every chunk, so a
	// strict Set fails; SE schemes fail over to a live coordinator but
	// its chunk distribution also hits the dead peer. Reads of
	// previously stored data must keep working either way.
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if err := c.Set("before", []byte("failure")); err != nil {
		t.Fatal(err)
	}
	cl.Kill(2)
	if got, err := c.Get("before"); err != nil || string(got) != "failure" {
		t.Fatalf("degraded read: %q, %v", got, err)
	}
	// A strict write that needs the dead server fails loudly rather
	// than silently losing redundancy.
	var sawErr bool
	for i := 0; i < 20; i++ {
		if err := c.Set(fmt.Sprintf("during-%d", i), []byte("x")); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("no Set touched the dead server across 20 keys (placement should spread)")
	}
}

// TestDecodeUnavailableIsNotAbsence: with three of five servers down,
// an existing key's read reaches two of its five chunks — too few to
// decode, too few to prove absence. Every scheme must report that as
// ErrUnavailable: the server-side decoder applies the client decoder's
// absence rule (era-ce-cd is the reference), never ErrNotFound. A key
// that never existed still reads as ErrNotFound while all are up.
func TestDecodeUnavailableIsNotAbsence(t *testing.T) {
	for _, mode := range []string{"era-ce-cd", "era-se-sd"} {
		t.Run(mode, func(t *testing.T) {
			cl := startCluster(t, 5)
			cfg := allModes()[mode]
			cfg.MaxRetries = -1
			c := newClient(t, cl, cfg)
			if err := c.Set("k", bytes.Repeat([]byte("x"), 10_000)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get("never-set"); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("Get of an absent key: %v, want ErrNotFound", err)
			}
			for _, i := range []int{2, 3, 4} {
				cl.Kill(i)
			}
			_, err := c.Get("k")
			if errors.Is(err, core.ErrNotFound) || !errors.Is(err, core.ErrUnavailable) {
				t.Fatalf("Get with 3 of 5 servers down: %v, want ErrUnavailable", err)
			}
		})
	}
}

func TestRestartServer(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	cl.Kill(0)
	if err := cl.Restart(0); err != nil {
		t.Fatal(err)
	}
	if cl.Alive() != 5 {
		t.Fatalf("alive = %d", cl.Alive())
	}
	// The restarted server is empty, but K of 5 chunks still exist.
	if got, err := c.Get("k"); err != nil || string(got) != "v1" {
		t.Fatalf("after restart: %q, %v", got, err)
	}
	// New writes repopulate the full stripe.
	if err := c.Set("k", []byte("v2")); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	if got, _ := c.Get("k"); string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
}

func TestHybridPolicyRouting(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceHybrid,
		Replicas:   3,
		K:          3,
		M:          2,
	})
	small := bytes.Repeat([]byte("s"), 100)
	large := bytes.Repeat([]byte("L"), 20_000)
	if err := c.Set("small", small); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("large", large); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string][]byte{"small": small, "large": large} {
		got, err := c.Get(key)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get %s: %v (len %d)", key, err, len(got))
		}
	}
	// The small value is replicated: its full bytes exist on 3
	// servers. The large value is erasure coded: aggregate stored
	// bytes across the cluster are ~5/3 of the value, not 3x.
	var total int64
	for i := 0; i < 5; i++ {
		total += cl.Server(i).Store().Stats().UsedBytes
	}
	repBytes := int64(3 * len(small))
	ecBytes := int64(len(large)) * 5 / 3
	upper := repBytes + ecBytes + 5*1024 // generous overhead allowance
	if total > upper {
		t.Fatalf("stored %d bytes, want <= %d (replication of the large value would be %d)",
			total, upper, repBytes+int64(3*len(large)))
	}
	// The cut-over is a strict `<`: a value one byte short of
	// DefaultHybridThreshold sits whole on 3 servers, and one of exactly
	// that size as K+M = 5 chunks on 5.
	for key, size := range map[string]int{
		"below": core.DefaultHybridThreshold - 1,
		"at":    core.DefaultHybridThreshold,
	} {
		if err := c.Set(key, bytes.Repeat([]byte(key[:1]), size)); err != nil {
			t.Fatal(err)
		}
		replicas, chunks := 0, 0
		for i := 0; i < 5; i++ {
			st := cl.Server(i).Store()
			if v, ok := st.Get(key); ok && len(v) == size {
				replicas++
			}
			for j := 0; j < 5; j++ {
				if _, ok := st.Get(wire.ChunkKey(key, j)); ok {
					chunks++
				}
			}
		}
		want := [2]int{3, 0}
		if size == core.DefaultHybridThreshold {
			want = [2]int{0, 5}
		}
		if got := [2]int{replicas, chunks}; got != want {
			t.Errorf("%d-byte value: %d whole replicas, %d chunks; want %d, %d",
				size, replicas, chunks, want[0], want[1])
		}
	}
	if err := c.Delete("small"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("large"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("large"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	cl := startCluster(t, 5)
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		c := newClient(t, cl, core.Config{
			Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
		})
		wg.Add(1)
		go func(ci int, c *core.Client) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("cc-%d-%d", ci, i)
				val := bytes.Repeat([]byte{byte(ci)}, 2048)
				if err := c.Set(key, val); err != nil {
					errs <- fmt.Errorf("set: %w", err)
					return
				}
				got, err := c.Get(key)
				if err != nil || !bytes.Equal(got, val) {
					errs <- fmt.Errorf("get %s: %v", key, err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPingAndStats(t *testing.T) {
	cl := startCluster(t, 3)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceNone})
	for _, addr := range cl.Addrs() {
		if err := c.Ping(addr); err != nil {
			t.Fatalf("ping %s: %v", addr, err)
		}
	}
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	var sets int64
	for _, addr := range cl.Addrs() {
		st, err := c.ServerStats(addr)
		if err != nil {
			t.Fatalf("stats %s: %v", addr, err)
		}
		sets += st.Sets
	}
	if sets != 1 {
		t.Fatalf("cluster saw %d sets, want 1", sets)
	}
}

func TestClientClose(t *testing.T) {
	cl := startCluster(t, 3)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceNone})
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Set("k2", []byte("v")); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Set after Close: %v", err)
	}
	c.Close() // idempotent
}

func TestConfigValidation(t *testing.T) {
	cl := startCluster(t, 2)
	cases := []core.Config{
		{},                      // no network
		{Network: cl.Network()}, // no servers
		{Network: cl.Network(), Servers: cl.Addrs(), Resilience: core.ResilienceSyncRep, Replicas: 5}, // replicas > servers
		{Network: cl.Network(), Servers: cl.Addrs(), K: 200, M: 100},                                  // k+m too large
		{Network: cl.Network(), Servers: cl.Addrs(), Resilience: core.Resilience(99)},                 // unknown mode
	}
	for i, cfg := range cases {
		if _, err := core.New(cfg); err == nil {
			t.Errorf("case %d: config accepted: %+v", i, cfg)
		}
	}
}

func TestWaitAllPropagatesError(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceNone})
	ok := c.ISet("k", []byte("v"))
	missing := c.IGet("nope")
	err := core.WaitAll(ok, nil, missing)
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("WaitAll err = %v", err)
	}
}

func TestStringers(t *testing.T) {
	for _, r := range []core.Resilience{core.ResilienceNone, core.ResilienceSyncRep,
		core.ResilienceAsyncRep, core.ResilienceErasure, core.ResilienceHybrid, core.Resilience(42)} {
		if r.String() == "" {
			t.Errorf("empty string for %d", r)
		}
	}
	for _, s := range []core.Scheme{core.SchemeCECD, core.SchemeSESD, core.SchemeSECD, core.Scheme(42)} {
		if s.String() == "" {
			t.Errorf("empty string for %d", s)
		}
	}
}
