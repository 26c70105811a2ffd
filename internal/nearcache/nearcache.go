// Package nearcache is the client-side hot-key read-scaling layer: a
// singleflight group that coalesces concurrent reads of one key into a
// single backend fetch, and a size-bounded, version-stamped cache of
// logical values that lets a proxy tier absorb zipfian hot reads
// instead of collapsing the key's home server (ROADMAP item 2; the
// design follows the lease/invalidate discipline of Nishtala et al.,
// "Scaling Memcache at Facebook"). Eviction is S3-FIFO without its ghost
// queue (Yang et al., SOSP 2023): a new entry waits in a small FIFO and
// moves on to the main FIFO only if hit there; main reinserts its tail
// while the tail's hit count lasts.
//
// Consistency contract: every cached value carries the stripe version
// it was read at — the same token the CAS machinery checks — so a
// stale entry is self-correcting: a conditional write based on it
// fails with EXISTS, and the client invalidates the entry on every
// Cas outcome (cluster EXISTS responses carry no current version, so
// invalidation is unconditional rather than version-compared).
// Entries are invalidated eagerly on local Set/Cas/Delete and on TTL
// or MaxAge expiry; a fill races a concurrent invalidation through
// per-slot generation counters (Begin/Put), so an invalidation between
// fetch and fill wins and the stale fill is dropped. The singleflight
// group is guarded by the same generation discipline: a local write
// bumps the key's flight generation (Group.Invalidate), and a later
// read refuses to coalesce onto a flight begun before the bump — so
// what a client reads is monotonic with respect to its own writes,
// with or without the cache. Cross-client staleness is bounded by
// MaxAge/TTL and corrected by the version stamp on the first
// conditional write.
//
// Lease discipline: values are immutable and lent, never copied. Put
// adopts the caller's bytes — the caller hands over memory nothing else
// will write (the read path's fill is a copy out of a pooled frame or a
// fresh join; a Set's base is copied where it enters, in core) — Get
// returns the entry's own slice, and the singleflight group hands every
// coalesced waiter the leader's result itself. So a value the cache or
// the group returns is read-only and may be shared with other callers:
// the rule the store already follows for the values it lends (DESIGN
// §9). Put clips what it adopts to its length, so a holder's append
// reallocates instead of writing past the lent bytes.
package nearcache

import (
	"slices"
	"sync"
	"time"

	"ecstore/internal/metrics"
)

// genSlots is the size of the striped generation table guarding fills
// against concurrent invalidations. Collisions are safe (a colliding
// invalidation drops an unrelated in-flight fill, never serves stale
// data) and at 1024 slots rare enough not to matter.
const genSlots = 1024

// entryOverhead approximates the per-entry bookkeeping cost charged
// against MaxBytes on top of key and value bytes.
const entryOverhead = 64

// S3-FIFO's constants: small's share of MaxBytes is 1/smallShare; a hit count stops at maxFreq.
const smallShare, maxFreq = 10, 3

// Value is a cached logical value: the payload bytes, the stripe
// version they were read at (the CAS token), and the item's own
// remaining TTL in whole seconds at the time of the read (0 = no
// expiry). The MaxAge residency cap never leaks into TTL — callers
// persist this field back to the cluster (the proxy's
// read-modify-write commands keep an item's TTL across append/incr),
// so reporting the cap here would silently truncate real lifetimes.
// Data is read-only once it is handed to the cache or returned by it.
type Value struct {
	Data    []byte
	Version uint64
	TTL     uint32
}

// entry is one cached value and its place in its queue (intrusive, so
// a new key costs one allocation at most: none when it reuses the entry
// the last removal freed).
type entry struct {
	key        string
	data       []byte // read-only: lent to every Get
	version    uint64
	expires    time.Time // the item's own TTL deadline; zero = no expiry
	staleAt    time.Time // the MaxAge residency deadline; zero = no cap
	charge     int64
	prev, next *entry
	freq       uint8 // hits since it entered or last rotated, up to maxFreq
	inMain     bool  // in the main queue, not the small one
}

// expired reports whether e is past its item TTL or its MaxAge.
func (e *entry) expired(now time.Time) bool {
	return (!e.expires.IsZero() && !e.expires.After(now)) || (!e.staleAt.IsZero() && !e.staleAt.After(now))
}

// Config configures a Cache.
type Config struct {
	// MaxBytes bounds the total charge (key + value + overhead) of
	// cached entries, both queues together; the two-queue rule (see
	// the package doc) evicts to stay under it. Required (> 0).
	MaxBytes int64
	// MaxAge caps how long any entry may be served regardless of its
	// item TTL — a safety valve on cross-client staleness
	// (0 = no cap). It bounds residency only: the TTL a Get reports
	// always reflects the item's own lifetime, never this cap.
	MaxAge time.Duration
	// Metrics receives the cache's hit/miss/eviction/invalidation
	// counters and size gauges (nil discards them).
	Metrics *metrics.Registry
	// Now overrides the clock (tests only; time.Now if nil).
	Now func() time.Time
}

// Cache is the size-bounded version-stamped two-queue FIFO. A nil
// *Cache is valid and behaves as an always-miss cache, so callers can
// thread an optional cache without nil checks. Caches are safe for
// concurrent use.
type Cache struct {
	mu        sync.Mutex
	max       int64
	maxAge    time.Duration
	used      int64
	smallUsed int64 // the small queue's share of used
	small     entry // queue sentinels: x.next is the newest entry,
	main      entry // x.prev the next one evict examines
	entries   map[string]*entry
	spare     *entry // the last entry removed, cleared, for the next new key
	gens      [genSlots]uint64
	now       func() time.Time

	hits          *metrics.Counter
	misses        *metrics.Counter
	evictions     *metrics.Counter
	invalidations *metrics.Counter
	fillsDropped  *metrics.Counter
	bytesGauge    *metrics.Gauge
	itemsGauge    *metrics.Gauge
}

// New returns a Cache; nil if cfg.MaxBytes <= 0 (caching disabled).
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		return nil
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	reg := cfg.Metrics
	c := &Cache{
		max:           cfg.MaxBytes,
		maxAge:        cfg.MaxAge,
		now:           now,
		hits:          reg.Counter("ecstore_client_nearcache_hits_total"),
		misses:        reg.Counter("ecstore_client_nearcache_misses_total"),
		evictions:     reg.Counter("ecstore_client_nearcache_evictions_total"),
		invalidations: reg.Counter("ecstore_client_nearcache_invalidations_total"),
		fillsDropped:  reg.Counter("ecstore_client_nearcache_fills_dropped_total"),
		bytesGauge:    reg.Gauge("ecstore_client_nearcache_bytes"),
		itemsGauge:    reg.Gauge("ecstore_client_nearcache_items"),
	}
	c.clear()
	return c
}

func genSlot(key string) int {
	// FNV-1a over the key bytes; inlined to keep the hot path
	// allocation-free.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % genSlots)
}

// Begin opens a fill attempt for key: the returned generation must be
// passed to Put, which drops the fill if any invalidation of the key
// (or a slot collision) happened in between. Call it BEFORE issuing
// the backend read the fill's value comes from.
func (c *Cache) Begin(key string) uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	g := c.gens[genSlot(key)]
	c.mu.Unlock()
	return g
}

// Get returns the cached value for key, lent: its Data is the entry's
// own read-only slice. A miss, an entry past its item TTL, or an entry
// past MaxAge returns ok = false (expired entries are dropped). The
// returned Value's TTL is the item's own remaining lifetime in whole
// seconds, rounded up — the residency cap only decides serve/expire and
// is never reported.
func (c *Cache) Get(key string) (Value, bool) {
	if c == nil {
		return Value{}, false
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		c.mu.Unlock()
		return Value{}, false
	}
	now := c.now()
	if e.expired(now) {
		c.removeLocked(e)
		c.misses.Inc()
		c.mu.Unlock()
		return Value{}, false
	}
	var remaining uint32
	if !e.expires.IsZero() {
		remaining = uint32((e.expires.Sub(now) + time.Second - 1) / time.Second)
	}
	if e.freq < maxFreq {
		e.freq++
	}
	v := Value{Data: e.data, Version: e.version, TTL: remaining}
	c.hits.Inc()
	c.mu.Unlock()
	return v, true
}

// Put installs v under key, adopting v.Data: the caller hands over bytes
// nothing will write again. It is dropped if an invalidation of key
// happened since gen was read with Begin (the fill lost the race —
// installing it would resurrect a value a local write just overtook).
// Values too large to ever fit are rejected. A new key enters the small
// queue once evict has made room; a live key is rewritten in place (no
// reader holds the entry, only the bytes it lent) and keeps its place.
func (c *Cache) Put(key string, v Value, gen uint64) {
	if c == nil {
		return
	}
	charge := int64(len(key)) + int64(len(v.Data)) + entryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if charge > c.max {
		return
	}
	if c.gens[genSlot(key)] != gen {
		c.fillsDropped.Inc()
		return
	}
	var expires, staleAt time.Time
	if v.TTL > 0 {
		expires = c.now().Add(time.Duration(v.TTL) * time.Second)
	}
	if c.maxAge > 0 {
		staleAt = c.now().Add(c.maxAge)
	}
	e, ok := c.entries[key]
	if !ok {
		c.evict(charge)
		if e, c.spare = c.spare, nil; e == nil {
			e = &entry{}
		}
		e.key = key
		c.entries[key] = e
		pushFront(&c.small, e)
	}
	c.used += charge - e.charge
	if !e.inMain {
		c.smallUsed += charge - e.charge
	}
	e.data = slices.Clip(v.Data)
	e.version, e.expires, e.staleAt, e.charge = v.Version, expires, staleAt, charge
	c.evict(0) // a live key that grew
	c.bytesGauge.Set(c.used)
	c.itemsGauge.Set(int64(len(c.entries)))
}

// Invalidate drops key and bumps its generation slot, so any fill in
// flight (Begin called before this) is dropped at Put.
func (c *Cache) Invalidate(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gens[genSlot(key)]++
	if e, ok := c.entries[key]; ok {
		c.removeLocked(e)
		c.invalidations.Inc()
	}
	c.mu.Unlock()
}

// InvalidateAll empties the cache and bumps every generation slot
// (flush_all).
func (c *Cache) InvalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	for i := range c.gens {
		c.gens[i]++
	}
	n := int64(len(c.entries))
	c.clear()
	c.invalidations.Add(n)
	c.bytesGauge.Set(0)
	c.itemsGauge.Set(0)
	c.mu.Unlock()
}

// evict makes room for extra bytes, taking small's tail while small is
// over its share or main is empty, else main's. A tail is evicted if its
// count is 0 or, reading the clock only then, it has expired; else it
// moves to main's head, from small with count 0, from main with one less.
func (c *Cache) evict(extra int64) {
	for c.used+extra > c.max {
		e := c.main.prev
		if c.smallUsed > c.max/smallShare || e == &c.main {
			e = c.small.prev
		}
		if e.freq == 0 || e.expired(c.now()) {
			c.removeLocked(e)
			c.evictions.Inc()
			continue
		}
		e.prev.next, e.next.prev = e.next, e.prev
		if e.inMain {
			e.freq--
		} else {
			c.smallUsed -= e.charge
			e.freq, e.inMain = 0, true
		}
		pushFront(&c.main, e)
	}
}

// removeLocked unlinks e and keeps it, cleared, as the spare the next
// new key's Put takes: nothing holds an entry once it is out of the map
// and the queues (Get lends e.data, never e), and in a full cache every
// new key follows an eviction, so the steady state allocates no entry.
func (c *Cache) removeLocked(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	delete(c.entries, e.key)
	c.used -= e.charge
	if !e.inMain {
		c.smallUsed -= e.charge
	}
	*e = entry{}
	c.spare = e
	c.bytesGauge.Set(c.used)
	c.itemsGauge.Set(int64(len(c.entries)))
}

// clear empties both queues.
func (c *Cache) clear() {
	c.small.prev, c.small.next = &c.small, &c.small
	c.main.prev, c.main.next = &c.main, &c.main
	c.entries = make(map[string]*entry)
	c.used, c.smallUsed = 0, 0
}

// pushFront makes e the newest entry of the queue q heads.
func pushFront(q, e *entry) {
	e.prev, e.next = q, q.next
	e.prev.next, e.next.prev = e, e
}

// ---- singleflight ----

// Result is one key's outcome of Group.Fetch.
type Result struct {
	Value
	Err error
	// wait is where a key that joined another caller's fetch receives
	// that fetch's outcome.
	wait chan Result
	// fl is the flight of a key this Result's caller leads: the group's
	// map points at it while the fetch runs, so leading costs no
	// allocation.
	fl flight
}

// flight is one in-flight fetch of a key, kept in its leader's Result.
type flight struct {
	gen     uint64 // key's generation when the flight was created
	waiters []chan Result
}

// Group coalesces concurrent fetches of one key: the first caller (the
// leader) fetches it; callers arriving while that is in flight wait and
// receive the leader's result instead of dialing themselves. The zero
// Group is ready to use.
//
// Sharing: every waiter receives the leader's result itself — the same
// read-only bytes the leader returns and the cache holds (see the
// package's lease discipline), so fetch must fill it with bytes nothing
// will write again. Errors are shared as-is.
//
// Write ordering: flights are generation-guarded. Invalidate (called
// after every local write of the key) bumps the key's generation, and
// Fetch refuses to coalesce onto a flight created under an older
// generation — without the guard, a read issued after the caller's own
// completed write could park on a fetch that began before the write
// and return the pre-write value. A superseded flight still delivers
// to the waiters that joined it before the bump; their reads preceded
// the write, so the older result is consistent for them.
type Group struct {
	mu      sync.Mutex
	gens    [genSlots]uint64
	flights map[string]*flight
}

// Fetch resolves keys, one Result per key by position — a read of one
// key is a call with one. Each key independently either joins the
// in-flight fetch of its current generation or is led by this call, and
// fetch runs ONCE, on the calling goroutine, for all led keys together:
// that is what lets a bulk read stay one frame per server while still
// coalescing per key with concurrent readers. The return counts the
// keys satisfied from another caller's fetch.
//
// Fetch reorders keys and res together, led keys first in their input
// order, so what fetch is handed is a prefix of the caller's own slice:
// it must fill res[i].Value and res[i].Err for every lead[i], and
// nothing else of res[i], which holds the key's flight. (A fetch cannot
// forget a key: a slot it leaves alone reports the empty value.) A key
// listed twice joins the flight its first occurrence leads.
//
// Served before parking: led keys are fetched and their waiters served
// BEFORE this call parks on the flights it joined. A call only joins
// flights registered before its own, so calls cannot wait on each other
// in a cycle; the order keeps a led key's waiters from being held
// behind the leader's own joins, and lets a call that joined its own
// flight (a repeated key) be served by itself.
//
// A led key's flight is res[i].fl: its place is fixed once it is led,
// as later swaps only touch higher positions, and it is unregistered
// before Fetch returns, so the caller may reuse res at once.
func (g *Group) Fetch(keys []string, res []Result, fetch func(lead []string)) (joined int) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	n := 0
	for i, key := range keys {
		cur := g.gens[genSlot(key)]
		if f, ok := g.flights[key]; ok && f.gen == cur {
			res[i].wait = make(chan Result, 1)
			f.waiters = append(f.waiters, res[i].wait)
			continue
		}
		// Either no flight exists, or the one in flight predates an
		// invalidation of key (its generation is stale): joining it could
		// return a value fetched before this caller's own completed
		// write. Lead a fresh flight instead, superseding the stale one
		// in the map.
		keys[n], keys[i] = keys[i], keys[n]
		res[n], res[i] = res[i], res[n]
		res[n].fl = flight{gen: cur}
		g.flights[key] = &res[n].fl
		n++
	}
	g.mu.Unlock()

	if n > 0 {
		fetch(keys[:n])
	}

	// Unregister before distributing: a read arriving after this point
	// starts a fresh fetch instead of waiting on an already-finished one
	// (and observing ever-staler data). Delete only where the map still
	// points at our flight — a superseded flight must not tear down its
	// replacement.
	g.mu.Lock()
	for i := range n {
		if g.flights[keys[i]] == &res[i].fl {
			delete(g.flights, keys[i])
		}
	}
	g.mu.Unlock()
	for i := range n {
		r := Result{Err: res[i].Err}
		if r.Err == nil {
			r.Value = res[i].Value
		}
		for _, ch := range res[i].fl.waiters {
			ch <- r
		}
		res[i].fl = flight{}
	}

	for i := n; i < len(keys); i++ {
		res[i] = <-res[i].wait
	}
	return len(keys) - n
}

// Invalidate marks any in-flight fetch of key as predating a write:
// callers arriving after this bump start a fresh fetch instead of
// coalescing onto it. Called after every local Set/Cas/Delete of key —
// this is what keeps coalesced reads monotonic with respect to the
// caller's own writes.
func (g *Group) Invalidate(key string) {
	g.mu.Lock()
	g.gens[genSlot(key)]++
	g.mu.Unlock()
}

// InvalidateAll bumps every generation slot (flush_all): no caller
// coalesces onto any flight begun before the flush.
func (g *Group) InvalidateAll() {
	g.mu.Lock()
	for i := range g.gens {
		g.gens[i]++
	}
	g.mu.Unlock()
}
