// Package store implements the server-side in-memory item store: a
// sharded hash table with per-shard LRU eviction, lazy TTL expiry, and
// byte-accurate memory accounting. It plays the role Memcached's slab
// cache plays in the paper: a volatile store whose evictions under
// memory pressure are exactly the "data loss" the replication scheme
// suffers in Figure 10.
//
// Values are kept, not copied: a write installs the slice it is given,
// which from then on belongs to the store, and a read lends that same
// slice back. Neither side may modify the bytes afterwards.
package store

import (
	"errors"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"ecstore/internal/metrics"
)

// ItemOverhead approximates the per-item metadata cost (hash entry,
// LRU links, expiry), mirroring Memcached's ~50-60 byte item header.
const ItemOverhead = 56

// DefaultShards is the default shard count.
const DefaultShards = 16

// ErrOutOfMemory is returned by Set when the item cannot fit even
// after evicting (item larger than a shard's budget), or when eviction
// is disabled and the shard is full.
var ErrOutOfMemory = errors.New("store: out of memory")

// ErrValueTooLarge is returned when a single item exceeds the whole
// store budget.
var ErrValueTooLarge = errors.New("store: value exceeds store capacity")

// Config configures a Store.
type Config struct {
	// MaxBytes is the total memory budget across all shards.
	// Zero means unlimited.
	MaxBytes int64
	// Shards is the number of shards (DefaultShards if zero).
	Shards int
	// DisableEviction makes Set fail with ErrOutOfMemory instead of
	// evicting LRU items when full.
	DisableEviction bool
	// Now supplies the time for TTL handling (time.Now if nil).
	Now func() time.Time
}

// Stats is a snapshot of store counters.
type Stats struct {
	Items      int64
	UsedBytes  int64
	MaxBytes   int64
	Gets       int64
	Hits       int64
	Misses     int64
	Sets       int64
	Deletes    int64
	Evictions  int64
	EvictBytes int64
	Expired    int64
	Failures   int64
}

// Store is the sharded item store. It is safe for concurrent use.
type Store struct {
	shards []*shard
	now    func() time.Time
}

type shard struct {
	mu    sync.Mutex
	items map[string]*entry
	// lru is the sentinel of the recency ring the entries link into:
	// lru.next is the most recent entry, lru.prev the eviction candidate.
	lru      entry
	maxBytes int64
	used     int64
	noEvict  bool
	now      func() time.Time
	stats    Stats
}

// entry is one stored item. value is immutable once installed: a write
// installs the caller's slice and never touches the old one, which is
// what lets Get lend it out without copying.
type entry struct {
	key       string
	value     []byte
	expiresAt time.Time // zero means no expiry
	size      int64
	version   uint64 // CAS token; 0 for unversioned writes

	prev, next *entry // recency ring links
}

// unlink takes e out of the recency ring.
func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// pushFront links e in as the most recent entry.
func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = &sh.lru, sh.lru.next
	e.prev.next, e.next.prev = e, e
}

// reset empties the shard's table and recency ring.
func (sh *shard) reset() {
	sh.items = make(map[string]*entry)
	sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
}

// New returns a Store with the given configuration.
func New(cfg Config) *Store {
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	var perShard int64
	if cfg.MaxBytes > 0 {
		perShard = cfg.MaxBytes / int64(n)
		if perShard == 0 {
			perShard = 1
		}
	}
	s := &Store{shards: make([]*shard, n), now: now}
	for i := range s.shards {
		s.shards[i] = &shard{maxBytes: perShard, noEvict: cfg.DisableEviction, now: now}
		s.shards[i].reset()
	}
	return s
}

func (s *Store) shardFor(key string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

func itemSize(key string, value []byte) int64 {
	return int64(len(key)) + int64(len(value)) + ItemOverhead
}

// Set stores value under key with the given TTL (0 = no expiry). The
// value is kept, not copied: the store installs value itself, so the
// caller must not modify it afterwards (reads lend it out). Set returns
// ErrOutOfMemory if the item cannot fit.
func (s *Store) Set(key string, value []byte, ttl time.Duration) error {
	return s.SetVersioned(key, value, ttl, 0)
}

// SetVersioned is Set with an explicit item version — the CAS token a
// later GetMeta returns and a CompareSwap checks. Versions are chosen
// by writers (the cluster client mints one per logical write, so every
// replica of a key stores the same token); 0 marks an unversioned
// write. Like Set it keeps value: the caller must not modify it
// afterwards.
func (s *Store) SetVersioned(key string, value []byte, ttl time.Duration, version uint64) error {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats.Sets++
	return sh.setLocked(key, value, ttl, version)
}

// setLocked installs value — the slice itself — under key, handling
// eviction budgeting and overwrite accounting. Caller holds sh.mu.
func (sh *shard) setLocked(key string, value []byte, ttl time.Duration, version uint64) error {
	size := itemSize(key, value)
	var expires time.Time
	if ttl > 0 {
		expires = sh.now().Add(ttl)
	}
	if sh.maxBytes > 0 && size > sh.maxBytes {
		sh.stats.Failures++
		return ErrValueTooLarge
	}
	// An overwrite must not destroy the existing entry until the new
	// one is guaranteed to fit: a Set failing with ErrOutOfMemory has
	// to leave the previous value readable. The budget check therefore
	// credits the old entry's size (it will be replaced, not added)
	// and the removal happens only on the success path below.
	old, overwriting := sh.items[key]
	var oldSize int64
	if overwriting {
		oldSize = old.size
	}
	if sh.maxBytes > 0 {
		for sh.used-oldSize+size > sh.maxBytes {
			if sh.noEvict || !sh.evictOldestLocked() {
				sh.stats.Failures++
				return ErrOutOfMemory
			}
			// Eviction walks the LRU tail and may have consumed the
			// entry being overwritten; stop crediting it if so.
			if overwriting {
				if _, still := sh.items[key]; !still {
					overwriting, oldSize = false, 0
				}
			}
		}
	}
	if overwriting {
		// The entry stays; only the value slice is new, so a reader still
		// holding the old one keeps a whole version.
		old.unlink()
		sh.used -= oldSize
		old.value, old.expiresAt, old.size, old.version = value, expires, size, version
	} else {
		old = &entry{key: key, value: value, expiresAt: expires, size: size, version: version}
		sh.items[key] = old
	}
	sh.pushFront(old)
	sh.used += size
	return nil
}

// evictOldestLocked removes the LRU entry; returns false if empty.
func (sh *shard) evictOldestLocked() bool {
	e := sh.lru.prev
	if e == &sh.lru {
		return false
	}
	sh.removeLocked(e)
	sh.stats.Evictions++
	sh.stats.EvictBytes += e.size
	return true
}

func (sh *shard) removeLocked(e *entry) {
	e.unlink()
	delete(sh.items, e.key)
	sh.used -= e.size
}

// Get returns the value stored under key: GetMeta without the metadata,
// under the same lend contract.
func (s *Store) Get(key string) ([]byte, bool) {
	value, _, _, ok := s.GetMeta(key)
	return value, ok
}

// GetMeta returns the value stored under key together with its version
// and remaining TTL (0 = no expiry). It counts as a Get for stats and
// LRU purposes.
//
// The value is LENT, not copied: it is the stored slice itself, and the
// caller must treat it as read-only. It stays whole and unchanged for as
// long as the caller holds it, whatever happens to the key meanwhile —
// the store never writes to an installed slice (an overwrite, a delete
// or an eviction installs or drops a slice, it does not modify one) and
// never recycles one (it is the collector's). A caller that needs to
// modify the bytes makes its own copy.
func (s *Store) GetMeta(key string) (value []byte, version uint64, ttl time.Duration, ok bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats.Gets++
	e, present := sh.items[key]
	if !present {
		sh.stats.Misses++
		return nil, 0, 0, false
	}
	now := sh.now()
	if !e.expiresAt.IsZero() && !now.Before(e.expiresAt) {
		sh.removeLocked(e)
		sh.stats.Expired++
		sh.stats.Misses++
		return nil, 0, 0, false
	}
	e.unlink()
	sh.pushFront(e)
	sh.stats.Hits++
	if !e.expiresAt.IsZero() {
		ttl = e.expiresAt.Sub(now)
	}
	return e.value, e.version, ttl, true
}

// CASOutcome classifies the result of a CompareSwap.
type CASOutcome int

const (
	// CASStored means the swap happened: the new value and version are
	// in place.
	CASStored CASOutcome = iota
	// CASNotFound means the key was absent (or expired) and the call
	// did not permit an insert.
	CASNotFound
	// CASExists means the key was present with a different version; the
	// stored item is untouched.
	CASExists
)

// CompareSwap atomically replaces key's value if the stored version
// equals expect, installing the new value under version. The decision
// and the write happen under one shard lock, so no concurrent writer
// can slip between the check and the swap.
//
// When the key is absent (or lazily expired), expect==0 acts as an
// insert-if-absent ("add"): the item is created. allowMissing also
// permits the insert regardless of expect — the erasure-coded path
// uses this so a CAS can succeed on servers whose chunk was lost,
// re-materialising it. Otherwise an absent key yields CASNotFound.
//
// When the key is present, expect==0 (a pure add) or a version
// mismatch yields CASExists with the stored version returned in prior.
// Memory-budget failures surface as a non-nil error with the original
// item left readable, same as Set. A stored value is kept, as by Set:
// the caller must not modify it afterwards.
func (s *Store) CompareSwap(key string, value []byte, ttl time.Duration, expect, version uint64, allowMissing bool) (CASOutcome, uint64, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats.Sets++
	e, present := sh.items[key]
	if present && !e.expiresAt.IsZero() && !sh.now().Before(e.expiresAt) {
		sh.removeLocked(e)
		sh.stats.Expired++
		present = false
	}
	if !present {
		if expect != 0 && !allowMissing {
			return CASNotFound, 0, nil
		}
		if err := sh.setLocked(key, value, ttl, version); err != nil {
			return CASNotFound, 0, err
		}
		return CASStored, 0, nil
	}
	if expect == 0 || e.version != expect {
		return CASExists, e.version, nil
	}
	prior := e.version
	if err := sh.setLocked(key, value, ttl, version); err != nil {
		return CASExists, prior, err
	}
	return CASStored, prior, nil
}

// CompareDelete atomically removes key if the stored version equals
// expect — the memcached `md C<cas>` semantics. The check and the
// removal happen under one shard lock, so a concurrent writer cannot
// slip a new value in between them (the check-then-delete race this
// replaces). CASStored means the item was deleted; CASNotFound means
// the key was absent or expired; CASExists means the stored version
// differed (returned in prior) and the item is untouched. expect must
// be non-zero — versions are never zero.
func (s *Store) CompareDelete(key string, expect uint64) (CASOutcome, uint64) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.items[key]
	if !ok {
		return CASNotFound, 0
	}
	if !e.expiresAt.IsZero() && !sh.now().Before(e.expiresAt) {
		sh.removeLocked(e)
		sh.stats.Expired++
		return CASNotFound, 0
	}
	if e.version != expect {
		return CASExists, e.version
	}
	sh.removeLocked(e)
	sh.stats.Deletes++
	return CASStored, e.version
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.items[key]
	if !ok {
		return false
	}
	sh.removeLocked(e)
	sh.stats.Deletes++
	return true
}

// Shards returns the number of shards, the coarse unit of the paged
// scan API.
func (s *Store) Shards() int { return len(s.shards) }

// ScanShard returns up to limit live (non-expired) keys of shard si in
// lexicographic order, strictly after `after` (empty to start). The
// shard lock is held only while the key set is gathered — never across
// pages and never during the sort — so a long scan cannot starve
// concurrent Set/Get/Delete traffic.
//
// The sorted-order cursor gives the scan its stability guarantee
// without snapshots: a key that exists for the whole scan is always
// returned exactly once, because its position in the ordering is
// fixed and the cursor sweeps every position. Keys inserted or removed
// mid-scan may or may not appear, which is the usual anti-entropy
// contract (they will be seen by the next cycle).
func (s *Store) ScanShard(si int, after string, limit int) []string {
	if si < 0 || si >= len(s.shards) || limit <= 0 {
		return nil
	}
	sh := s.shards[si]
	sh.mu.Lock()
	now := sh.now()
	keys := make([]string, 0, len(sh.items))
	for k, e := range sh.items {
		if k <= after {
			continue
		}
		if !e.expiresAt.IsZero() && !now.Before(e.expiresAt) {
			continue // lazily expired: invisible to readers already
		}
		keys = append(keys, k)
	}
	sh.mu.Unlock()
	sort.Strings(keys)
	if len(keys) > limit {
		keys = keys[:limit]
	}
	return keys
}

// Len returns the number of stored items (including not-yet-expired).
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// UsedBytes returns the accounted memory across all shards.
func (s *Store) UsedBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.used
		sh.mu.Unlock()
	}
	return n
}

// MaxBytes returns the configured total budget (0 = unlimited).
func (s *Store) MaxBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.maxBytes
	}
	return n
}

// Stats returns aggregated counters across all shards.
func (s *Store) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := sh.stats
		st.Items = int64(len(sh.items))
		st.UsedBytes = sh.used
		st.MaxBytes = sh.maxBytes
		sh.mu.Unlock()
		out.Items += st.Items
		out.UsedBytes += st.UsedBytes
		out.MaxBytes += st.MaxBytes
		out.Gets += st.Gets
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Sets += st.Sets
		out.Deletes += st.Deletes
		out.Evictions += st.Evictions
		out.EvictBytes += st.EvictBytes
		out.Expired += st.Expired
		out.Failures += st.Failures
	}
	return out
}

// RegisterMetrics publishes the store's counters into reg as
// ecstore_store_* function gauges, evaluated lazily at snapshot or
// scrape time — the store keeps its existing per-shard accounting and
// the registry reads through it, so there is no double bookkeeping.
func (s *Store) RegisterMetrics(reg *metrics.Registry) {
	register := func(name string, read func(Stats) int64) {
		reg.RegisterFunc("ecstore_store_"+name, func() int64 { return read(s.Stats()) })
	}
	register("items", func(st Stats) int64 { return st.Items })
	register("used_bytes", func(st Stats) int64 { return st.UsedBytes })
	register("max_bytes", func(st Stats) int64 { return st.MaxBytes })
	register("gets_total", func(st Stats) int64 { return st.Gets })
	register("hits_total", func(st Stats) int64 { return st.Hits })
	register("misses_total", func(st Stats) int64 { return st.Misses })
	register("sets_total", func(st Stats) int64 { return st.Sets })
	register("deletes_total", func(st Stats) int64 { return st.Deletes })
	register("evictions_total", func(st Stats) int64 { return st.Evictions })
	register("evicted_bytes_total", func(st Stats) int64 { return st.EvictBytes })
	register("expired_total", func(st Stats) int64 { return st.Expired })
	register("failures_total", func(st Stats) int64 { return st.Failures })
}

// Flush removes every item.
func (s *Store) Flush() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.reset()
		sh.used = 0
		sh.mu.Unlock()
	}
}
