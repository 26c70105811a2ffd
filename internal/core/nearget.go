package core

import (
	"errors"
	"slices"
	"time"

	"ecstore/internal/nearcache"
	"ecstore/internal/wire"
)

// read is the hot-key read-scaling path every logical read goes through
// (DESIGN §11), results by position: MGetEach calls it under the op
// label "mget" (a bulk op, which also feeds the bulk frame series).
// Get, Gets and IGet take the same path for one key under "get"
// (getOp): they look the key up in the cache themselves and call fetch
// on a miss, so that their key and result live in the batcher fetch
// needs anyway.
//
//  1. the near cache (when Config.CacheBytes enables it) answers
//     without any RPC, returning the value stamped with the stripe
//     version it was read at — so a Cas built on it behaves exactly as
//     if the read had dialed;
//  2. the misses go through the flight group, which coalesces
//     concurrent fetches of one key into ONE strategy read — per key,
//     so a bulk read shares a hot key's fetch with single-key readers
//     and the other way round; waiters receive the leader's result
//     itself — bytes the strategy copied out of the pooled frames or
//     joined fresh, never a released buffer;
//  3. the leader installs what it fetched in the cache, guarded by the
//     generation it drew before fetching — a local write's
//     invalidation in between wins and the fill is dropped.
//
// Authoritative absence invalidates: a NotFound observed from the
// cluster means any cached value is stale.
//
// Nothing is copied on the way: a cached value, a fetched one, the
// cache's entry and every coalesced waiter's result are the same
// read-only bytes (Item.Value).
//
// keys must be duplicate-free and the caller's own: read reorders keys
// and res together (cache misses first, then as Group.Fetch does), and
// res[i] answers keys[i] as they stand on return.
func (c *Client) read(keys []string, res []nearcache.Result) {
	start := time.Now()
	miss := 0
	for i, key := range keys {
		v, ok := c.cache.Get(key)
		if ok {
			res[i].Value = v
			continue
		}
		keys[miss], keys[i] = keys[i], keys[miss]
		res[miss], res[i] = res[i], res[miss]
		miss++
	}
	if miss == 0 {
		// Hits do no wire work: they take the op's counters, not a
		// batcher.
		c.ops["mget"].done(start, nil)
		return
	}
	b := c.begin("mget")
	b.bulk = true
	c.fetch(b, keys[:miss], res[:miss])
}

// fetch reads keys, which the near cache missed, through the flight
// group and the strategy, fills the cache with what it led, and closes
// the operation's batcher b.
func (c *Client) fetch(b *batcher, keys []string, res []nearcache.Result) {
	joined := c.flight.Fetch(keys, res, func(lead []string) {
		// Generations are drawn BEFORE the fetch, so a concurrent local
		// write's invalidation in between wins and the fill is dropped.
		gens := b.genBuf[:]
		if len(lead) > len(gens) {
			gens = make([]uint64, len(lead))
		}
		for i, key := range lead {
			gens[i] = c.cache.Begin(key)
		}
		// The strategy's retries (transient and epoch) run INSIDE the
		// flight leader: placement is re-resolved against the refreshed
		// view, and every coalesced waiter shares the one corrected fetch.
		for i, r := range c.strat.get(b, lead) {
			if r.err != nil {
				if errors.Is(r.err, ErrNotFound) {
					c.cache.Invalidate(lead[i])
				}
				res[i].Err = r.err
				continue
			}
			// Only the leader fills: every waiter carries the same bytes,
			// and the leader is the one whose generation predates the fetch.
			// Clipped, so no holder's append writes into what the others
			// share.
			res[i].Value = nearcache.Value{Data: slices.Clip(r.item.Value), Version: r.item.Version, TTL: r.item.TTL}
			c.cache.Put(lead[i], res[i].Value, gens[i])
		}
	})
	c.mCoalesced.Add(int64(joined))
	// The op failed if a key did; absence fails a Get but is an answer
	// to a bulk read.
	var err error
	for i := 0; i < len(res) && err == nil; i++ {
		if e := res[i].Err; e != nil && !(b.bulk && errors.Is(e, ErrNotFound)) {
			err = e
		}
	}
	b.end(Item{}, err)
}

// invalidate drops key from the near cache after a local mutation
// (Set/Cas/Delete). Called regardless of the mutation's outcome: on
// success the cached value is stale by construction, on failure the
// key's state is unknown — either way serving the old entry would
// break read-your-writes. The flight generation is bumped too, so a
// subsequent Get never coalesces onto a fetch that began before this
// write — that fetch could return the pre-write value.
func (c *Client) invalidate(key string) {
	c.cache.Invalidate(key)
	c.flight.Invalidate(key)
}

// fillAfterWrite is the write-through fill: it installs the value a
// successful Set/Cas just wrote as the key's near-cache entry, stamped
// with the version the write returned, so the writer's next read of the
// key is a hit (proxy-mget's hit ratio rests on it). The write-side
// invalidate has already run — a failed or conflicted write leaves the
// key's state unknown and installs nothing — so this is a fresh fill
// under a fresh generation. value is the writer's, who may reuse it
// once the write returns, so the cache adopts a copy: the one copy on
// the way into the cache.
func (c *Client) fillAfterWrite(key string, value []byte, version uint64, ttl time.Duration) {
	if c.cache == nil || version == 0 {
		return
	}
	c.cache.Put(key, nearcache.Value{
		Data:    append([]byte(nil), value...),
		Version: version,
		TTL:     wire.TTLSeconds(ttl),
	}, c.cache.Begin(key))
}
