package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/core"
)

// poolDelta snapshots the outstanding-lease delta of the shared frame
// pool (gets minus puts). Storm tests assert the delta returns to its
// pre-test baseline: coalesced waiters must never retain or
// double-release a pooled buffer.
func poolDelta() uint64 {
	st := bufpool.Default.Stats()
	return st.Gets - st.Puts
}

func waitPoolBaseline(t *testing.T, baseline uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if poolDelta() == baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("frame pool lease imbalance: outstanding delta %d, baseline %d",
				poolDelta(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A storm of concurrent Gets of one hot key: every waiter must receive
// the correct full value — the leader's bytes, shared read-only, so
// under -race a reader that wrote to its result would be flagged — at
// least some requests must coalesce, and the frame pool must balance.
// Run under -race this is the singleflight correctness gate.
func TestSingleflightGetStorm(t *testing.T) {
	for _, mode := range []string{"era-ce-cd", "sync-rep"} {
		t.Run(mode, func(t *testing.T) {
			baseline := poolDelta()
			// A netem delay on every server makes each cluster read take
			// at least 2 ms, so concurrent Gets deterministically overlap
			// in-flight reads instead of racing past each other on the
			// instant in-process transport.
			cl, netem := startNetemCluster(t, 5)
			for _, addr := range cl.Addrs() {
				netem.Delay(addr, 2*time.Millisecond)
			}
			cfg := allModes()[mode]
			cfg.Window = 1024
			c := newClient(t, cl, cfg)

			value := bytes.Repeat([]byte("hotvalue"), 1024) // 8 KB
			if err := c.Set("hot", value); err != nil {
				t.Fatal(err)
			}

			const goroutines = 64
			const rounds = 8
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						got, err := c.Get("hot")
						if err != nil {
							t.Errorf("goroutine %d round %d: %v", g, r, err)
							return
						}
						if !bytes.Equal(got, value) {
							t.Errorf("goroutine %d round %d: wrong value (%d bytes)", g, r, len(got))
							return
						}
					}
				}(g)
			}
			wg.Wait()

			coalesced := c.Metrics().Snapshot().Counter("ecstore_client_coalesced_reads_total")
			if coalesced == 0 {
				t.Error("no reads coalesced during a 64-goroutine hot-key storm")
			}
			t.Logf("%s: %d of %d reads coalesced", mode, coalesced, goroutines*rounds)
			waitPoolBaseline(t, baseline)
		})
	}
}

// Near-cache invalidation on CAS conflict: once a conditional write
// observes EXISTS, the stale cached version must never be served
// again — the next read must refetch the authoritative value.
func TestNearCacheInvalidatedOnCASConflict(t *testing.T) {
	cl := startCluster(t, 5)

	cfg := allModes()["era-ce-cd"]
	cfg.CacheBytes = 1 << 20
	cfg.CacheMaxAge = -1 // no residency cap: only invalidations expire entries
	cached := newClient(t, cl, cfg)
	writer := newClient(t, cl, allModes()["era-ce-cd"])

	old := bytes.Repeat([]byte("old"), 1000)
	if err := cached.Set("k", old); err != nil {
		t.Fatal(err)
	}
	item, err := cached.Gets("k") // fills the near cache
	if err != nil {
		t.Fatal(err)
	}
	staleToken := item.Version

	// Another client overwrites: the cached entry is now stale.
	fresh := bytes.Repeat([]byte("new"), 1000)
	freshVersion, err := writer.SetVersion("k", fresh, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The cache, knowing nothing of the remote write, still serves the
	// old value — the documented bounded-staleness window.
	if got, err := cached.Get("k"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("expected cached stale read, got %d bytes, err %v", len(got), err)
	}

	// A conditional write on the stale token observes EXISTS...
	if _, err := cached.Cas("k", []byte("update"), 0, staleToken); !errors.Is(err, core.ErrCASConflict) {
		t.Fatalf("Cas on stale token: err = %v, want ErrCASConflict", err)
	}

	// ...and from that observation on, the stale version must be gone.
	item, err = cached.Gets("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(item.Value, fresh) {
		t.Fatalf("stale value served after EXISTS observation")
	}
	if item.Version != freshVersion {
		t.Fatalf("stale version %d served after EXISTS observation, want %d",
			item.Version, freshVersion)
	}
}

// A cached read must report the item's own TTL, not the CacheMaxAge
// residency cap: the proxy's read-modify-write commands persist the
// TTL they read back through Cas, so a capped report would truncate a
// 1h item to ~5s — and give a no-expiry item an expiry — on every
// append/incr against a cache hit.
func TestNearCacheReportsItemTTLNotResidencyCap(t *testing.T) {
	cl := startCluster(t, 5)
	cfg := allModes()["era-ce-cd"]
	cfg.CacheBytes = 1 << 20 // default CacheMaxAge (5s) applies
	c := newClient(t, cl, cfg)

	if err := c.Set("forever", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetTTL("hour", []byte("v"), time.Hour); err != nil {
		t.Fatal(err)
	}
	// Round 0 fills the cache; round 1 is served from it and must
	// report the same item lifetimes.
	for round := 0; round < 2; round++ {
		item, err := c.Gets("forever")
		if err != nil {
			t.Fatal(err)
		}
		if item.TTL != 0 {
			t.Fatalf("round %d: no-expiry item reports TTL %d, want 0", round, item.TTL)
		}
		item, err = c.Gets("hour")
		if err != nil {
			t.Fatal(err)
		}
		if item.TTL < 3500 {
			t.Fatalf("round %d: 1h item reports TTL %ds — residency cap leaked into the item TTL",
				round, item.TTL)
		}
	}
	if hits := c.Metrics().Snapshot().Counter("ecstore_client_nearcache_hits_total"); hits < 2 {
		t.Fatalf("second round not served from cache (hits=%d)", hits)
	}
}

// Local writes invalidate the cache even while a read storm keeps
// refilling it: readers may see old or new, but never a torn value,
// and after the last write settles every read must return the final
// value (read-your-writes for the writing client).
func TestNearCacheWriteStormConsistency(t *testing.T) {
	cl := startCluster(t, 5)
	cfg := allModes()["era-ce-cd"]
	cfg.CacheBytes = 1 << 20
	cfg.Window = 512
	c := newClient(t, cl, cfg)

	mk := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, 4096) }
	if err := c.Set("k", mk('a')); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := c.Get("k")
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				// Complete values only: all bytes identical.
				for i := 1; i < len(got); i++ {
					if got[i] != got[0] {
						t.Errorf("torn value: byte %d is %q, byte 0 is %q", i, got[i], got[0])
						return
					}
				}
			}
		}()
	}
	var final []byte
	for i := 0; i < 20; i++ {
		final = mk(byte('a' + i%8))
		if err := c.Set("k", final); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	// Read-your-writes: the writer's own next read sees its last write.
	got, err := c.Get("k")
	if err != nil || !bytes.Equal(got, final) {
		t.Fatalf("after write storm: got %d bytes (err %v), want final value", len(got), err)
	}
}

// The near cache actually absorbs hot reads: repeated Gets of one key
// must hit memory, not the wire.
func TestNearCacheAbsorbsHotReads(t *testing.T) {
	cl := startCluster(t, 5)
	cfg := allModes()["era-ce-cd"]
	cfg.CacheBytes = 1 << 20
	c := newClient(t, cl, cfg)

	if err := c.Set("hot", []byte("v")); err != nil {
		t.Fatal(err)
	}
	const reads = 200
	for i := 0; i < reads; i++ {
		if _, err := c.Get("hot"); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Metrics().Snapshot()
	hits := snap.Counter("ecstore_client_nearcache_hits_total")
	if hits < reads-1 {
		t.Fatalf("nearcache hits = %d, want >= %d", hits, reads-1)
	}
	// TTL still respected through the cache: a short-lived item must
	// stop being served once its lifetime passes, even when cached.
	if err := c.SetTTL("ephemeral", []byte("v"), time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("ephemeral"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Get("ephemeral")
		if errors.Is(err, core.ErrNotFound) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("cached entry still served after its TTL expired")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// An uncached client (CacheBytes 0) still reads through the near
// cache, which only coalesces for it: it keeps no value — a write by
// another client is seen at once — and counts no hit or miss.
func TestUncachedClientCountsNoNearCacheActivity(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["hybrid"])
	other := newClient(t, cl, allModes()["hybrid"])
	keys := []string{"u0", "u1", "u2"}
	for _, value := range []string{"old", "new"} {
		for _, k := range keys {
			if err := other.Set(k, []byte(value)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Set(keys[0], []byte(value)); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if got, err := c.Get(k); err != nil || string(got) != value {
				t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, value)
			}
		}
		got, err := c.MGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if string(got[k]) != value {
				t.Fatalf("MGet[%s] = %q, want %q", k, got[k], value)
			}
		}
	}
	snap := c.Metrics().Snapshot()
	for _, name := range []string{"hits_total", "misses_total"} {
		if got := snap.Counter("ecstore_client_nearcache_" + name); got != 0 {
			t.Errorf("nearcache %s = %d, want 0", name, got)
		}
	}
	for _, name := range []string{"items", "bytes"} {
		if got := snap.Gauges["ecstore_client_nearcache_"+name]; got != 0 {
			t.Errorf("nearcache %s = %d, want 0", name, got)
		}
	}
}

// MGet rides the same read-through path: hot keys in a batch are
// served from the cache and invalidated by local writes.
func TestNearCacheMGet(t *testing.T) {
	cl := startCluster(t, 5)
	cfg := allModes()["sync-rep"]
	cfg.CacheBytes = 1 << 20
	c := newClient(t, cl, cfg)

	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if err := c.Set(keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		got, err := c.MGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if string(got[k]) != k {
				t.Fatalf("round %d: key %s = %q", round, k, got[k])
			}
		}
	}
	if hits := c.Metrics().Snapshot().Counter("ecstore_client_nearcache_hits_total"); hits == 0 {
		t.Fatal("MGet never hit the near cache")
	}
	if err := c.Set(keys[0], []byte("updated")); err != nil {
		t.Fatal(err)
	}
	got, err := c.MGet(keys[:1])
	if err != nil || string(got[keys[0]]) != "updated" {
		t.Fatalf("MGet after write: %q, err %v", got[keys[0]], err)
	}
}

// A writer may reuse its buffer once Set returns: the near cache, which
// lends what it holds to every reader, keeps a copy of a written value
// (the write-through fill), never the caller's bytes. The fill is the
// near-cache rule for every mode: the writer's own Gets right after a
// Set or a Cas reaches no server and answers the version the write
// returned.
func TestSetCallerMayReuseBuffer(t *testing.T) {
	cl := startCluster(t, 5)
	reads := func() (n int64) {
		for i := range cl.Addrs() {
			snap := cl.Server(i).Metrics().Snapshot()
			for _, op := range []string{"get", "get-chunk", "batch"} {
				n += snap.Counter(`ecstore_server_ops_total{op="` + op + `"}`)
			}
		}
		return n
	}
	for _, mode := range []string{"era-ce-cd", "hybrid", "sync-rep"} {
		t.Run(mode, func(t *testing.T) {
			cfg := allModes()[mode]
			cfg.CacheBytes = 1 << 20
			c := newClient(t, cl, cfg)
			// written checks the reads after a write of want from buf that
			// returned version, once the writer has scribbled over buf.
			written := func(step, key string, buf, want []byte, version uint64) {
				t.Helper()
				for i := range buf {
					buf[i] = 'X'
				}
				before := reads()
				item, err := c.Gets(key)
				if err != nil || !bytes.Equal(item.Value, want) {
					t.Fatalf("%s: Gets after the writer reused its buffer: %q…, %v", step, item.Value[:min(len(item.Value), 8)], err)
				}
				if n := reads() - before; n != 0 {
					t.Fatalf("%s: the Gets after the write sent %d reads", step, n)
				}
				if item.Version != version {
					t.Fatalf("%s: Gets answered version %d, the write returned %d", step, item.Version, version)
				}
				got, err := c.Get(key)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: Get after the writer reused its buffer: %q…, %v", step, got[:min(len(got), 8)], err)
				}
				found, failed := c.MGetItems([]string{key})
				if v := found[key].Value; failed != nil || !bytes.Equal(v, want) {
					t.Fatalf("%s: MGetItems after the writer reused its buffer: %q…, %v", step, v[:min(len(v), 8)], failed)
				}
			}
			// A small value and a large one: hybrid replicates the first
			// and erasure-codes the second.
			for _, size := range []int{100, 64 << 10} {
				key := fmt.Sprintf("%s-reuse-%d", mode, size)
				want := bytes.Repeat([]byte("w"), size)
				buf := bytes.Clone(want)
				version, err := c.SetVersion(key, buf, 0)
				if err != nil {
					t.Fatal(err)
				}
				written(fmt.Sprintf("%d B Set", size), key, buf, want, version)

				want = bytes.Repeat([]byte("c"), size)
				buf = bytes.Clone(want)
				if version, err = c.Cas(key, buf, 0, version); err != nil {
					t.Fatal(err)
				}
				written(fmt.Sprintf("%d B Cas", size), key, buf, want, version)
			}
		})
	}
}

// A multi-get the near cache answers in full allocates per call, not
// per key: hits are lent, not copied (25 objects while they were). A
// one-key Get the cache answers allocates nothing.
func TestCachedMGetAllocatesPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cl := startCluster(t, 5)
	cfg := allModes()["hybrid"]
	cfg.CacheBytes = 1 << 20
	c := newClient(t, cl, cfg)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("percall-%d", i)
		if err := c.Set(keys[i], bytes.Repeat([]byte("v"), 1<<10)); err != nil {
			t.Fatal(err)
		}
	}
	mget := func() {
		if found, failed := c.MGetItems(keys); len(found) != len(keys) || failed != nil {
			t.Fatalf("MGetItems: %d found, %v", len(found), failed)
		}
	}
	mget() // fills the cache
	misses := func() int64 { return c.Metrics().Snapshot().Counter("ecstore_client_nearcache_misses_total") }
	before := misses()
	if got := testing.AllocsPerRun(100, mget); got > 8 {
		t.Errorf("a 16-key MGetItems of cached keys allocates %.0f objects, want <= 8", got)
	} else {
		t.Logf("allocates %.0f objects", got)
	}
	get := func() {
		if _, err := c.Get(keys[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, get); got != 0 {
		t.Errorf("a one-key Get of a cached key allocates %.0f objects, want 0", got)
	}
	if m := misses() - before; m != 0 {
		t.Fatalf("%d near-cache misses: not every key was a hit", m)
	}
}

// TestGetAndMGetCoalesceOntoOneRead: a Get of k and an MGet containing
// k issued concurrently share ONE strategy read of k, whichever of the
// two got there first — both go through the same flight entry point, so
// the later one joins the earlier one's fetch. Counted at the servers:
// k is read once, the MGet's other key once.
func TestGetAndMGetCoalesceOntoOneRead(t *testing.T) {
	// Server-side reads one key costs: one get from a replica, K chunks.
	for mode, perKey := range map[string]int64{"sync-rep": 1, "era-ce-cd": 3} {
		for _, leader := range []string{"Get", "MGet"} {
			t.Run(mode+"/"+leader+" leads", func(t *testing.T) {
				// Every response is held back long enough that the leader is
				// still in flight when the joiner arrives.
				cl, netem := startNetemCluster(t, 5)
				for _, addr := range cl.Addrs() {
					netem.Delay(addr, 100*time.Millisecond)
				}
				c := newClient(t, cl, allModes()[mode])
				values := map[string][]byte{"k": bytes.Repeat([]byte("k"), 2048), "other": []byte("o")}
				if err := c.MSet(values); err != nil {
					t.Fatal(err)
				}
				reads := func() (n int64) {
					for i := range cl.Addrs() {
						snap := cl.Server(i).Metrics().Snapshot()
						n += snap.Counter(`ecstore_server_ops_total{op="get"}`) + snap.Counter(`ecstore_server_ops_total{op="get-chunk"}`)
					}
					return n
				}
				get := func() map[string][]byte {
					v, err := c.Get("k")
					if err != nil {
						t.Error(err)
					}
					return map[string][]byte{"k": v}
				}
				mget := func() map[string][]byte {
					found, err := c.MGet([]string{"other", "k"})
					if err != nil {
						t.Error(err)
					}
					return found
				}
				first, second := get, mget
				if leader == "MGet" {
					first, second = mget, get
				}

				before := reads()
				led := make(chan map[string][]byte, 1)
				go func() { led <- first() }()
				// The leader registers its flights before it sends anything, so
				// once a server has seen a read the joiner cannot miss them.
				for deadline := time.Now().Add(5 * time.Second); reads() == before; {
					if time.Now().After(deadline) {
						t.Fatal("the leading read never reached a server")
					}
					time.Sleep(time.Millisecond)
				}
				joined := second()
				for _, found := range []map[string][]byte{<-led, joined} {
					for key, got := range found {
						if !bytes.Equal(got, values[key]) {
							t.Errorf("%s = %d bytes, want %d", key, len(got), len(values[key]))
						}
					}
				}
				if got := reads() - before; got != 2*perKey {
					t.Errorf("servers saw %d reads, want %d: k once and other once", got, 2*perKey)
				}
				if n := c.Metrics().Snapshot().Counter("ecstore_client_coalesced_reads_total"); n != 1 {
					t.Errorf("coalesced reads = %d, want 1", n)
				}
			})
		}
	}
}
