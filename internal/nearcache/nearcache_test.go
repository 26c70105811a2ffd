package nearcache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/metrics"
	"ecstore/internal/ycsb"
)

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the current charged size.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// fakeClock is an adjustable clock for deadline tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func newCache(t *testing.T, maxBytes int64, clk *fakeClock) (*Cache, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg := Config{MaxBytes: maxBytes, Metrics: reg}
	if clk != nil {
		cfg.Now = clk.now
	}
	c := New(cfg)
	if c == nil {
		t.Fatal("New returned nil for positive MaxBytes")
	}
	return c, reg
}

// TestNewDisabled: at MaxBytes <= 0 New still returns a Cache — the
// flight tests below coalesce through one — but it keeps no value,
// neither a Put nor a flight's fill, and counts no hit or miss.
func TestNewDisabled(t *testing.T) {
	for _, max := range []int64{0, -1} {
		reg := metrics.NewRegistry()
		c := New(Config{MaxBytes: max, Metrics: reg})
		c.Put("k", Value{Data: []byte("v")}, c.Begin("k"))
		fetchOne(c, "f", func() (Value, error) { return Value{Data: []byte("v")}, nil })
		for _, key := range []string{"k", "f"} {
			if _, ok := c.Get(key); ok {
				t.Fatalf("MaxBytes=%d: %q cached", max, key)
			}
		}
		c.Invalidate("k")
		c.InvalidateAll()
		if c.Len() != 0 || c.Bytes() != 0 {
			t.Fatalf("MaxBytes=%d: %d entries, %d bytes", max, c.Len(), c.Bytes())
		}
		snap := reg.Snapshot()
		for _, name := range []string{"hits", "misses", "fills_dropped", "invalidations"} {
			if got := snap.Counter("ecstore_client_nearcache_" + name + "_total"); got != 0 {
				t.Fatalf("MaxBytes=%d: %s = %d, want 0", max, name, got)
			}
		}
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	c, reg := newCache(t, 1<<20, nil)
	c.Put("k", Value{Data: []byte("hello"), Version: 7, TTL: 0}, c.Begin("k"))
	v, ok := c.Get("k")
	if !ok {
		t.Fatal("expected hit")
	}
	if string(v.Data) != "hello" || v.Version != 7 || v.TTL != 0 {
		t.Fatalf("got %+v", v)
	}
	snap := reg.Snapshot()
	if snap.Counter("ecstore_client_nearcache_hits_total") != 1 {
		t.Fatalf("hits = %d, want 1", snap.Counter("ecstore_client_nearcache_hits_total"))
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("expected miss")
	}
	if got := reg.Snapshot().Counter("ecstore_client_nearcache_misses_total"); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
}

// Get lends the entry: every hit returns the cached slice itself, no
// copy. The slice is clipped to its length, so a holder's append
// reallocates instead of writing into bytes the next holder shares.
func TestGetLendsEntry(t *testing.T) {
	c, _ := newCache(t, 1<<20, nil)
	c.Put("k", Value{Data: []byte("aaaa"), Version: 1}, c.Begin("k"))
	v1, _ := c.Get("k")
	v2, ok := c.Get("k")
	if !ok || &v1.Data[0] != &v2.Data[0] {
		t.Fatal("two hits returned different buffers: the entry was copied")
	}
	if cap(v1.Data) != len(v1.Data) {
		t.Fatalf("lent slice has cap %d beyond its %d bytes", cap(v1.Data), len(v1.Data))
	}
	grown := append(v1.Data, 'Z')
	if &grown[0] == &v1.Data[0] {
		t.Fatal("an append to a lent value wrote into the cached entry's array")
	}
	if v3, _ := c.Get("k"); string(v3.Data) != "aaaa" {
		t.Fatalf("entry changed by a holder's append: %q", v3.Data)
	}
}

// Put adopts the caller's bytes: the cache takes them as they are, and
// the caller hands over memory nothing will write again.
func TestPutAdoptsData(t *testing.T) {
	c, _ := newCache(t, 1<<20, nil)
	buf := make([]byte, 8, 64)
	copy(buf, "original")
	c.Put("k", Value{Data: buf, Version: 1}, c.Begin("k"))
	v, ok := c.Get("k")
	if !ok || string(v.Data) != "original" {
		t.Fatalf("Get = %q, %v", v.Data, ok)
	}
	if &v.Data[0] != &buf[0] {
		t.Fatal("Put copied the value instead of adopting it")
	}
}

// A hit costs no allocation, a re-Put of a live key none (it is
// rewritten in place), a new key one — the entry, which is its own
// queue element — and a new key in a full cache none: it takes the
// entry its eviction freed.
func TestCacheAllocations(t *testing.T) {
	c, _ := newCache(t, 1<<30, nil)
	data := []byte("value")
	c.Put("hot", Value{Data: data, Version: 1}, c.Begin("hot"))
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get("hot"); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("Get hit: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.Put("hot", Value{Data: data, Version: 2}, c.Begin("hot"))
	}); n != 0 {
		t.Errorf("Put of a live key: %v allocations, want 0", n)
	}
	// The map is grown to its final size first, so what is counted is
	// the Put, not the map's growth.
	const runs = 100
	keys := make([]string, runs+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		c.Put(keys[i], Value{Data: data}, c.Begin(keys[i]))
	}
	for _, k := range keys {
		c.Invalidate(k)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		c.Put(keys[next], Value{Data: data, Version: 1}, c.Begin(keys[next]))
		next++
	}); n != 1 {
		t.Errorf("Put of a new key: %v allocations, want 1", n)
	}

	// A cache that holds 64 entries of this size, filled and then turned
	// over once, so the map has reached its steady size too.
	full, _ := newCache(t, 64*(int64(len("f0000"))+int64(len(data))+entryOverhead), nil)
	fresh := make([]string, 2*1000+1)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("f%04d", i)
	}
	for _, k := range fresh[:1000] {
		full.Put(k, Value{Data: data}, full.Begin(k))
	}
	if full.Len() != 64 {
		t.Fatalf("full cache holds %d entries, want 64", full.Len())
	}
	next = 1000
	if n := testing.AllocsPerRun(1000, func() {
		full.Put(fresh[next], Value{Data: data, Version: 1}, full.Begin(fresh[next]))
		next++
	}); n != 0 {
		t.Errorf("Put of a new key into a full cache: %v allocations, want 0", n)
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c, _ := newCache(t, 1<<20, clk)
	c.Put("k", Value{Data: []byte("v"), Version: 1, TTL: 10}, c.Begin("k"))
	v, ok := c.Get("k")
	if !ok || v.TTL != 10 {
		t.Fatalf("fresh entry: ok=%v ttl=%d", ok, v.TTL)
	}
	clk.advance(4 * time.Second)
	if v, ok = c.Get("k"); !ok || v.TTL != 6 {
		t.Fatalf("after 4s: ok=%v ttl=%d, want 6", ok, v.TTL)
	}
	clk.advance(7 * time.Second)
	if _, ok = c.Get("k"); ok {
		t.Fatal("expired entry served")
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not dropped")
	}
}

func TestMaxAgeCapsResidency(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := metrics.NewRegistry()
	c := New(Config{MaxBytes: 1 << 20, MaxAge: 2 * time.Second, Metrics: reg, Now: clk.now})
	// No item TTL, but MaxAge still bounds it.
	c.Put("k", Value{Data: []byte("v"), Version: 1}, c.Begin("k"))
	if _, ok := c.Get("k"); !ok {
		t.Fatal("fresh entry missed")
	}
	clk.advance(3 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry served past MaxAge")
	}
	// An item TTL shorter than MaxAge wins.
	c.Put("s", Value{Data: []byte("v"), Version: 1, TTL: 1}, c.Begin("s"))
	clk.advance(1500 * time.Millisecond)
	if _, ok := c.Get("s"); ok {
		t.Fatal("entry served past item TTL")
	}
}

// The MaxAge residency cap bounds how long an entry is served but must
// never leak into the TTL Get reports: proxy read-modify-write paths
// persist that TTL back to the cluster through cas, so a capped report
// would silently truncate the item's real lifetime (and give a
// no-expiry item a ~MaxAge one).
func TestMaxAgeDoesNotLeakIntoReportedTTL(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := metrics.NewRegistry()
	c := New(Config{MaxBytes: 1 << 20, MaxAge: 2 * time.Second, Metrics: reg, Now: clk.now})

	// No item TTL: reported TTL must stay 0 (no expiry)...
	c.Put("forever", Value{Data: []byte("v"), Version: 1}, c.Begin("forever"))
	if v, ok := c.Get("forever"); !ok || v.TTL != 0 {
		t.Fatalf("no-expiry entry: ok=%v ttl=%d, want ttl 0", ok, v.TTL)
	}
	// ...even though MaxAge still stops serving it.
	clk.advance(3 * time.Second)
	if _, ok := c.Get("forever"); ok {
		t.Fatal("no-expiry entry served past MaxAge")
	}

	// An item TTL far above MaxAge is reported in full, not clamped.
	c.Put("hour", Value{Data: []byte("v"), Version: 1, TTL: 3600}, c.Begin("hour"))
	clk.advance(time.Second)
	if v, ok := c.Get("hour"); !ok || v.TTL != 3599 {
		t.Fatalf("1h entry after 1s: ok=%v ttl=%d, want 3599", ok, v.TTL)
	}
	clk.advance(2 * time.Second)
	if _, ok := c.Get("hour"); ok {
		t.Fatal("1h entry served past MaxAge")
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget fits two entries of charge 1+1+64 = 66.
	c, reg := newCache(t, 150, nil)
	c.Put("a", Value{Data: []byte("1")}, c.Begin("a"))
	c.Put("b", Value{Data: []byte("2")}, c.Begin("b"))
	c.Get("a") // a was hit in the small queue, b was not
	// Making room for c promotes a to the main queue and evicts b.
	c.Put("c", Value{Data: []byte("3")}, c.Begin("c"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("new entry c missing")
	}
	if got := reg.Snapshot().Counter("ecstore_client_nearcache_evictions_total"); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if c.Bytes() > 150 {
		t.Fatalf("over budget: %d", c.Bytes())
	}
}

// A working set hit once after it entered survives a pass of single-use
// keys whose total charge exceeds MaxBytes: the pass churns through the
// small queue while the working set sits in main. An LRU loses all of it.
func TestScanResistance(t *testing.T) {
	val := make([]byte, 1000)
	const budget = 100 * (4 + 1000 + entryOverhead) // a hundred entries with 4-byte keys
	c, _ := newCache(t, budget, nil)
	work := make([]string, 50)
	for i := range work {
		work[i] = fmt.Sprintf("w%02d", i)
		c.Put(work[i], Value{Data: val}, c.Begin(work[i]))
	}
	for _, k := range work {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing before the scan", k)
		}
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("s%03d", i)
		c.Put(k, Value{Data: val}, c.Begin(k))
	}
	for _, k := range work {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted by a pass of single-use keys", k)
		}
	}
	if c.Bytes() > budget {
		t.Fatalf("over budget: %d", c.Bytes())
	}
}

// An entry past its item TTL or MaxAge that reaches a queue tail is
// evicted whatever its count: dead bytes never move to, or stay in, the
// main queue at a live entry's expense.
func TestExpiredEntryNeverPromoted(t *testing.T) {
	one := []byte("1")
	t.Run("small tail", func(t *testing.T) {
		clk := &fakeClock{t: time.Unix(1000, 0)}
		// Budget fits three entries of charge 66.
		c := New(Config{MaxBytes: 200, MaxAge: 5 * time.Second, Now: clk.now})
		c.Put("a", Value{Data: one}, c.Begin("a"))
		c.Get("a")
		clk.advance(4 * time.Second)
		c.Put("b", Value{Data: one}, c.Begin("b"))
		c.Get("b")
		c.Put("x", Value{Data: one}, c.Begin("x"))
		clk.advance(2 * time.Second) // a is past MaxAge, b and x are not
		// Promoting the dead a would have pushed b to main and x out.
		c.Put("c", Value{Data: one}, c.Begin("c"))
		for _, k := range []string{"b", "x", "c"} {
			if _, ok := c.Get(k); !ok {
				t.Errorf("%s evicted; the expired a should have gone", k)
			}
		}
		if c.Len() != 3 {
			t.Fatalf("len = %d, want 3", c.Len())
		}
	})
	t.Run("main tail", func(t *testing.T) {
		clk := &fakeClock{t: time.Unix(1000, 0)}
		// Budget fits two entries of charge 66.
		c := New(Config{MaxBytes: 150, Now: clk.now})
		c.Put("a", Value{Data: one, TTL: 1}, c.Begin("a"))
		c.Get("a")
		c.Put("b", Value{Data: one}, c.Begin("b"))
		c.Put("c", Value{Data: one}, c.Begin("c")) // a moves to main, b goes
		for i := 0; i < maxFreq; i++ {
			c.Get("a")
		}
		c.Get("c")
		clk.advance(2 * time.Second) // a is past its TTL with a full count
		// Reinserting the dead a would have evicted c instead.
		c.Put("d", Value{Data: one}, c.Begin("d"))
		for _, k := range []string{"c", "d"} {
			if _, ok := c.Get(k); !ok {
				t.Errorf("%s evicted; the expired a should have gone", k)
			}
		}
		if c.Len() != 2 {
			t.Fatalf("len = %d, want 2", c.Len())
		}
	})
}

// proxy-mget's traffic shape at a tenth of its size, replayed
// deterministically on one goroutine: a seeded scrambled zipfian over
// 2000 keys, every tenth value 32 KB and the rest 1 KB (8.2 MB of data),
// a 1.6 MB cache, 20 % write-through Sets (invalidate, then put) and
// 16-key reads that fill what they miss. An LRU hits about 0.69 here.
func TestZipfianHitRatio(t *testing.T) {
	const records, readKeys = 2000, 16
	reg := metrics.NewRegistry()
	c := New(Config{MaxBytes: 1600 << 10, Metrics: reg})
	keys := make([]string, records)
	vals := make([][]byte, records)
	small, big := make([]byte, 1<<10), make([]byte, 32<<10)
	for i := range keys {
		keys[i] = fmt.Sprintf("p%d", i)
		vals[i] = small
		if i%10 == 0 {
			vals[i] = big
		}
	}
	rng := rand.New(rand.NewSource(1))
	zipf := ycsb.NewScrambledZipfian(records)
	for op := 0; op < 10000; op++ {
		if rng.Float64() < 0.20 {
			k := zipf.Next(rng)
			c.Invalidate(keys[k])
			c.Put(keys[k], Value{Data: vals[k], Version: 1}, c.Begin(keys[k]))
			continue
		}
		var seen [readKeys]uint64
	draw:
		for n := 0; n < readKeys; {
			k := zipf.Next(rng)
			for _, have := range seen[:n] {
				if have == k {
					continue draw
				}
			}
			seen[n] = k
			n++
			if _, ok := c.Get(keys[k]); !ok {
				c.Put(keys[k], Value{Data: vals[k], Version: 1}, c.Begin(keys[k]))
			}
		}
	}
	snap := reg.Snapshot()
	hits := snap.Counter("ecstore_client_nearcache_hits_total")
	ratio := float64(hits) / float64(hits+snap.Counter("ecstore_client_nearcache_misses_total"))
	t.Logf("hit ratio %.3f", ratio)
	if ratio < 0.72 {
		t.Fatalf("hit ratio %.3f, want >= 0.72", ratio)
	}
}

func TestPutRejectsOversized(t *testing.T) {
	c, _ := newCache(t, 100, nil)
	c.Put("k", Value{Data: make([]byte, 200)}, c.Begin("k"))
	if c.Len() != 0 {
		t.Fatal("oversized value cached")
	}
}

func TestPutReplaceAdjustsCharge(t *testing.T) {
	c, _ := newCache(t, 1<<10, nil)
	c.Put("k", Value{Data: make([]byte, 100)}, c.Begin("k"))
	before := c.Bytes()
	c.Put("k", Value{Data: make([]byte, 10), Version: 2}, c.Begin("k"))
	after := c.Bytes()
	if after >= before {
		t.Fatalf("replace did not shrink charge: %d -> %d", before, after)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	v, _ := c.Get("k")
	if v.Version != 2 || len(v.Data) != 10 {
		t.Fatalf("replace lost: %+v", v)
	}
}

func TestInvalidate(t *testing.T) {
	c, reg := newCache(t, 1<<20, nil)
	c.Put("k", Value{Data: []byte("v"), Version: 1}, c.Begin("k"))
	c.Invalidate("k")
	if _, ok := c.Get("k"); ok {
		t.Fatal("invalidated entry served")
	}
	if got := reg.Snapshot().Counter("ecstore_client_nearcache_invalidations_total"); got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
}

func TestInvalidateAll(t *testing.T) {
	c, _ := newCache(t, 1<<20, nil)
	gen := c.Begin("a")
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Put(k, Value{Data: []byte("v")}, c.Begin(k))
	}
	c.InvalidateAll()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("cache not emptied: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	// A fill begun before the flush must be dropped.
	c.Put("a", Value{Data: []byte("stale")}, gen)
	if _, ok := c.Get("a"); ok {
		t.Fatal("pre-flush fill installed after InvalidateAll")
	}
}

// The fill-race guard: an invalidation between Begin and Put must win,
// dropping the (possibly stale) fill.
func TestFillLosesRaceToInvalidation(t *testing.T) {
	c, reg := newCache(t, 1<<20, nil)
	gen := c.Begin("k")
	// ... fill reads version 1 from the backend; meanwhile a local
	// write invalidates:
	c.Invalidate("k")
	c.Put("k", Value{Data: []byte("stale"), Version: 1}, gen)
	if _, ok := c.Get("k"); ok {
		t.Fatal("stale fill resurrected an invalidated key")
	}
	if got := reg.Snapshot().Counter("ecstore_client_nearcache_fills_dropped_total"); got != 1 {
		t.Fatalf("fills_dropped = %d, want 1", got)
	}
	// A fresh fill (Begin after the invalidation) installs fine.
	c.Put("k", Value{Data: []byte("fresh"), Version: 2}, c.Begin("k"))
	if v, ok := c.Get("k"); !ok || string(v.Data) != "fresh" {
		t.Fatal("fresh fill after invalidation did not install")
	}
}

// TestWriteDuringLedFetchWins: a local write while a flight's fetch
// runs — Invalidate, then the writer's own fill — wins over the value
// the fetch returns: the flight installs under the generation it began
// with, so its fill is dropped and the writer's value stays.
func TestWriteDuringLedFetchWins(t *testing.T) {
	c, reg := newCache(t, 1<<20, nil)
	v, joined, err := fetchOne(c, "k", func() (Value, error) {
		c.Invalidate("k")
		c.Put("k", Value{Data: []byte("v2"), Version: 2}, c.Begin("k"))
		return Value{Data: []byte("v1"), Version: 1}, nil
	})
	if err != nil || joined || string(v.Data) != "v1" {
		t.Fatalf("Fetch = %q, joined %v, %v; want the led v1", v.Data, joined, err)
	}
	if got, ok := c.Get("k"); !ok || string(got.Data) != "v2" || got.Version != 2 {
		t.Fatalf("Get after the write = %q v%d (%v), want the writer's v2", got.Data, got.Version, ok)
	}
	if got := reg.Snapshot().Counter("ecstore_client_nearcache_fills_dropped_total"); got != 1 {
		t.Fatalf("fills_dropped = %d, want 1", got)
	}
	// Without a write in between, the led value is the fill.
	fetchOne(c, "j", func() (Value, error) { return Value{Data: []byte("vj"), Version: 3}, nil })
	if got, ok := c.Get("j"); !ok || string(got.Data) != "vj" || got.Version != 3 {
		t.Fatalf("Get after a led fetch = %q v%d (%v), want the fill vj", got.Data, got.Version, ok)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	g := New(Config{})
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const n = 32
	var wg sync.WaitGroup
	coalesced := atomic.Int64{}
	values := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := fetchOne(g, "k", func() (Value, error) {
				calls.Add(1)
				close(started)
				<-release
				return Value{Data: []byte("payload"), Version: 9, TTL: 3}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if shared {
				coalesced.Add(1)
			}
			if string(v.Data) != "payload" || v.Version != 9 || v.TTL != 3 {
				t.Errorf("waiter %d got %+v", i, v)
			}
			values[i] = v.Data
		}(i)
	}
	<-started
	// Give the other goroutines a moment to register as waiters; those
	// that lose the race simply start their own flight, which is
	// correct but not what this test measures.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if calls.Load() >= n {
		t.Fatalf("no coalescing: %d backend calls for %d concurrent gets", calls.Load(), n)
	}
	if coalesced.Load() == 0 {
		t.Fatal("no waiter reported coalesced")
	}
	// Sharing: every caller holds the bytes of the fetch that served
	// it, so there are exactly as many distinct buffers as fetches.
	buffers := make(map[*byte]bool)
	for _, v := range values {
		if len(v) > 0 {
			buffers[&v[0]] = true
		}
	}
	if int64(len(buffers)) != calls.Load() {
		t.Fatalf("%d distinct buffers for %d fetches: a waiter got a copy", len(buffers), calls.Load())
	}
}

func TestSingleflightErrorShared(t *testing.T) {
	g := New(Config{})
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := fetchOne(g, "k", func() (Value, error) {
				close(started)
				<-release
				return Value{}, boom
			})
			errs[i] = err
		}(i)
	}
	<-started
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d: err = %v, want boom", i, err)
		}
	}
}

func TestSingleflightDistinctKeysDoNotCoalesce(t *testing.T) {
	g := New(Config{})
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			v, _, err := fetchOne(g, key, func() (Value, error) {
				calls.Add(1)
				return Value{Data: []byte(key)}, nil
			})
			if err != nil || string(v.Data) != key {
				t.Errorf("key %s: %v %q", key, err, v.Data)
			}
		}(i)
	}
	wg.Wait()
	if calls.Load() != 4 {
		t.Fatalf("calls = %d, want 4", calls.Load())
	}
}

// A Get must never coalesce onto a flight that began before the
// caller's own completed write: Invalidate bumps the key's flight
// generation, so later callers start a fresh fetch and see the
// post-write value while the pre-write leader is still in flight
// (read-your-writes through the singleflight layer).
func TestSingleflightInvalidateBreaksCoalescing(t *testing.T) {
	g := New(Config{})
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	var leaderV Value
	go func() {
		defer wg.Done()
		leaderV, _, _ = fetchOne(g, "k", func() (Value, error) {
			close(started)
			<-release
			return Value{Data: []byte("old"), Version: 1}, nil
		})
	}()
	<-started

	// A reader that parked before the write keeps the pre-write result
	// (its read preceded the write, so "old" is consistent for it).
	wg.Add(1)
	var preV Value
	var preShared bool
	go func() {
		defer wg.Done()
		preV, preShared, _ = fetchOne(g, "k", func() (Value, error) {
			return Value{Data: []byte("fresh-pre")}, nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // let it park as a waiter

	// The caller's write completes: bump the generation.
	g.Invalidate("k")

	// A read arriving after the write must not park on the stale
	// flight — it runs its own fetch even though the old leader is
	// still blocked.
	post, shared, err := fetchOne(g, "k", func() (Value, error) {
		return Value{Data: []byte("new"), Version: 2}, nil
	})
	if err != nil || shared {
		t.Fatalf("post-write read: err=%v shared=%v, want a fresh fetch", err, shared)
	}
	if string(post.Data) != "new" {
		t.Fatalf("post-write read returned %q, want \"new\"", post.Data)
	}

	close(release)
	wg.Wait()
	if string(leaderV.Data) != "old" {
		t.Fatalf("stale leader got %q, want \"old\"", leaderV.Data)
	}
	if preShared && string(preV.Data) != "old" {
		t.Fatalf("pre-write waiter got %q, want the leader's \"old\"", preV.Data)
	}

	// The superseded flight's completion must not have torn down live
	// state: a fresh sequential read still works uncoalesced.
	v, shared, err := fetchOne(g, "k", func() (Value, error) {
		return Value{Data: []byte("after")}, nil
	})
	if err != nil || shared || string(v.Data) != "after" {
		t.Fatalf("read after settle: %q shared=%v err=%v", v.Data, shared, err)
	}
}

// InvalidateAll (flush_all) must stop every key from coalescing onto
// pre-flush flights.
func TestSingleflightInvalidateAll(t *testing.T) {
	g := New(Config{})
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fetchOne(g, "k", func() (Value, error) {
			close(started)
			<-release
			return Value{Data: []byte("old")}, nil
		})
	}()
	<-started
	g.InvalidateAll()
	v, shared, err := fetchOne(g, "k", func() (Value, error) {
		return Value{Data: []byte("new")}, nil
	})
	if err != nil || shared || string(v.Data) != "new" {
		t.Fatalf("post-flush read: %q shared=%v err=%v, want fresh \"new\"", v.Data, shared, err)
	}
	close(release)
	wg.Wait()
}

// Sequential calls each run their own fetch (no flight lingers after
// completion).
func TestSingleflightSequential(t *testing.T) {
	g := New(Config{})
	var calls int
	for i := 0; i < 3; i++ {
		v, shared, err := fetchOne(g, "k", func() (Value, error) {
			calls++
			return Value{Data: []byte{byte(calls)}}, nil
		})
		if err != nil || shared {
			t.Fatalf("call %d: err=%v shared=%v", i, err, shared)
		}
		if !bytes.Equal(v.Data, []byte{byte(i + 1)}) {
			t.Fatalf("call %d returned stale flight result %v", i, v.Data)
		}
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}
