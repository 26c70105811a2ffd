// Package nearcache is the client-side hot-key read-scaling layer, one
// type: a Cache coalesces concurrent reads of a key into one backend
// fetch and, given a byte budget, keeps what it fetched, so a proxy tier
// absorbs zipfian hot reads instead of collapsing the key's home server
// (the lease/invalidate discipline of Nishtala et al., "Scaling Memcache
// at Facebook"). Eviction is S3-FIFO without its ghost queue (Yang et
// al., SOSP 2023): a new entry waits in a small FIFO and moves on to the
// main FIFO only if hit there; main reinserts its tail while the tail's
// hit count lasts.
//
// Consistency: every cached value carries the stripe version it was
// read at — the CAS token — so a stale entry is self-correcting: a
// conditional write based on it fails with EXISTS, and the client
// invalidates the key on every local Set/Cas/Delete, whatever the
// outcome. One rule orders reads against the client's own writes: a
// local write supersedes every read in flight. One table of per-slot
// generations keeps it: Invalidate bumps the key's slot; a flight
// remembers the generation it began under, so no later read joins it
// and its fill is dropped; a fill outside a flight draws its generation
// with Begin and hands it to Put. So what a client reads is monotonic
// with respect to its own writes. Cross-client staleness is bounded by
// MaxAge/TTL and corrected by the version stamp on the first
// conditional write.
//
// Lease discipline: values are immutable and lent, never copied. A fill
// adopts the caller's bytes — memory nothing else will write — Get
// returns the entry's own slice, and Fetch hands every coalesced waiter
// the leader's result itself. So a value the cache returns is read-only
// and may be shared (the store's rule for the values it lends, DESIGN
// §9). An entry is clipped to its length, so a holder's append
// reallocates instead of writing past the lent bytes.
package nearcache

import (
	"slices"
	"sync"
	"time"

	"ecstore/internal/metrics"
)

// genSlots is the size of the striped generation table guarding joins
// and fills against concurrent invalidations. Collisions are safe (a
// colliding invalidation drops an unrelated fill or starts a fresh
// flight, never serves stale data) and at 1024 slots rare enough not to
// matter.
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
	// the package doc) evicts to stay under it. At 0 or below the
	// Cache keeps no value and only coalesces reads.
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

// Cache is the size-bounded version-stamped two-queue FIFO and the
// flights of the reads it missed, under one mutex and one generation
// table. Caches are safe for concurrent use.
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
	flights   map[string]*flight
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

// New returns a Cache; with cfg.MaxBytes <= 0 it keeps no value and
// only coalesces reads.
func New(cfg Config) *Cache {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	reg := cfg.Metrics
	c := &Cache{
		max:           cfg.MaxBytes,
		maxAge:        cfg.MaxAge,
		now:           now,
		flights:       make(map[string]*flight),
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

// Begin opens a fill of key outside a flight, BEFORE the write or read
// its value comes from: Put drops the fill if an invalidation of the
// key's slot came in between.
func (c *Cache) Begin(key string) uint64 {
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
// is never reported. A Cache that keeps no value misses at once and
// counts nothing.
func (c *Cache) Get(key string) (Value, bool) {
	if c.max <= 0 {
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
func (c *Cache) Put(key string, v Value, gen uint64) {
	c.mu.Lock()
	c.putLocked(key, v, gen)
	c.mu.Unlock()
}

// putLocked is Put under c.mu, and a flight's fill. Values too large to
// ever fit are rejected (every value, when the Cache keeps none). A new
// key enters the small queue once evict has made room; a live key is
// rewritten in place (no reader holds the entry, only the bytes it
// lent) and keeps its place.
func (c *Cache) putLocked(key string, v Value, gen uint64) {
	charge := int64(len(key)) + int64(len(v.Data)) + entryOverhead
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

// Invalidate drops key and bumps its generation slot, after every local
// Set/Cas/Delete of key: a fill in flight (Begin, or a flight begun,
// before this) is dropped, and a later read refuses to join a flight
// begun before this — it could return a value from before the write.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	c.gens[genSlot(key)]++
	if e, ok := c.entries[key]; ok {
		c.removeLocked(e)
		c.invalidations.Inc()
	}
	c.mu.Unlock()
}

// InvalidateAll empties the cache and bumps every generation slot
// (flush_all): every fill in flight is dropped, and no read joins a
// flight begun before the flush.
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	for i := range c.gens {
		c.gens[i]++
	}
	c.invalidations.Add(int64(len(c.entries)))
	c.clear()
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
	c.bytesGauge.Set(0)
	c.itemsGauge.Set(0)
}

// pushFront makes e the newest entry of the queue q heads.
func pushFront(q, e *entry) {
	e.prev, e.next = q, q.next
	e.prev.next, e.next.prev = e, e
}

// ---- flights ----

// Result is one key's outcome of Fetch.
type Result struct {
	Value
	Err error
	// wait is where a key that joined another caller's fetch receives
	// that fetch's outcome.
	wait chan Result
	// fl is the flight of a key this Result's caller leads: the flights
	// map points at it while the fetch runs, so leading costs no
	// allocation.
	fl flight
}

// flight is one in-flight fetch of a key, kept in its leader's Result.
type flight struct {
	gen     uint64 // key's generation when the flight was created
	waiters []chan Result
}

// Fetch resolves keys the cache missed, one Result per key by position
// — a read of one key is a call with one. Each key either joins the
// in-flight fetch of its current generation or is led by this call, and
// fetch runs ONCE, on the calling goroutine, for all led keys together,
// so a bulk read stays one frame per server while coalescing per key
// with concurrent readers. The return counts the keys served by another
// caller's fetch; errors are shared as-is.
//
// Fetch reorders keys and res together, led keys first in their input
// order, so what fetch is handed is a prefix of the caller's own slice:
// it must fill res[i].Value and res[i].Err for every lead[i], and
// nothing else of res[i], which holds the key's flight (a slot it leaves
// alone reports the empty value). A key listed twice joins the flight
// its first occurrence leads. A led key's value is the fill, installed
// under its flight's generation where the flight is unregistered.
//
// Served before parking: led keys are fetched and their waiters served
// BEFORE this call parks on the flights it joined. A call only joins
// flights registered before its own, so calls cannot wait on each other
// in a cycle, and a call that joined its own flight (a repeated key) is
// served by itself. A superseded flight still serves the waiters that
// joined before the write; their reads preceded it.
//
// A led key's flight is res[i].fl: its place is fixed once it is led,
// as later swaps only touch higher positions, and it is unregistered
// before Fetch returns, so the caller may reuse res at once.
func (c *Cache) Fetch(keys []string, res []Result, fetch func(lead []string)) (joined int) {
	c.mu.Lock()
	n := 0
	for i, key := range keys {
		cur := c.gens[genSlot(key)]
		if f, ok := c.flights[key]; ok && f.gen == cur {
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
		c.flights[key] = &res[n].fl
		n++
	}
	c.mu.Unlock()

	if n > 0 {
		fetch(keys[:n])
		// Unregister before distributing: a read arriving after this
		// point finds the fill or starts a fresh fetch instead of waiting
		// on an already-finished one (and observing ever-staler data).
		// Delete only where the map still points at our flight — a
		// superseded flight must not tear down its replacement.
		c.mu.Lock()
		for i := range n {
			if c.flights[keys[i]] == &res[i].fl {
				delete(c.flights, keys[i])
			}
			if res[i].Err == nil {
				c.putLocked(keys[i], res[i].Value, res[i].fl.gen)
			}
		}
		c.mu.Unlock()
	}
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
