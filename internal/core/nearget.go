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
//  2. the misses go through the cache's flights, which coalesce
//     concurrent fetches of one key into ONE strategy read — per key,
//     so a bulk read shares a hot key's fetch with single-key readers
//     and the other way round; waiters receive the leader's result
//     itself — bytes the strategy copied out of the pooled frames or
//     joined fresh, never a released buffer;
//  3. the cache installs what a flight fetched under the generation the
//     flight began with — a local write's invalidation in between wins
//     and the fill is dropped.
//
// Authoritative absence invalidates: a NotFound observed from the
// cluster means any cached value is stale.
//
// Nothing is copied on the way: a cached value, a fetched one, the
// cache's entry and every coalesced waiter's result are the same
// read-only bytes (Item.Value).
//
// keys must be duplicate-free and the caller's own: read reorders keys
// and res together (cache misses first, then as Cache.Fetch does), and
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

// fetch reads keys, which the near cache missed, through the cache's
// flights and the strategy — the cache installs what it led — and
// closes the operation's batcher b.
func (c *Client) fetch(b *batcher, keys []string, res []nearcache.Result) {
	joined := c.cache.Fetch(keys, res, func(lead []string) {
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
			// Clipped, so no holder's append writes into what the
			// waiters and the cache share.
			res[i].Value = nearcache.Value{Data: slices.Clip(r.item.Value), Version: r.item.Version, TTL: r.item.TTL}
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

// fillAfterWrite is the write-through fill: it installs the value a
// successful Set/Cas just wrote, stamped with the version the write
// returned, so the writer's next read of the key is a hit (proxy-mget's
// hit ratio rests on it). It runs after the write's Invalidate, under a
// fresh generation. value is the writer's, who may reuse it once the
// write returns, so the cache adopts a copy: the one copy on the way in.
func (c *Client) fillAfterWrite(key string, value []byte, version uint64, ttl time.Duration) {
	if c.cfg.CacheBytes <= 0 || version == 0 {
		return
	}
	c.cache.Put(key, nearcache.Value{
		Data:    append([]byte(nil), value...),
		Version: version,
		TTL:     wire.TTLSeconds(ttl),
	}, c.cache.Begin(key))
}
