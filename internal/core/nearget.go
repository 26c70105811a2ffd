package core

import (
	"errors"
	"time"

	"ecstore/internal/nearcache"
)

// readThrough is the hot-key read-scaling path every logical Get goes
// through (DESIGN §11):
//
//  1. the near cache (when Config.CacheBytes enables it) answers
//     without any RPC, returning the value stamped with the stripe
//     version it was read at — so a Cas built on it behaves exactly as
//     if the read had dialed;
//  2. on a miss, the singleflight group coalesces concurrent fetches
//     of the same key into ONE strategy read; waiters receive their
//     own copies of the leader's result (never a shared or released
//     buffer);
//  3. the leader installs its result in the cache, guarded by the
//     generation it drew before fetching — a local write's
//     invalidation in between wins and the fill is dropped.
//
// Authoritative absence invalidates: a NotFound observed from the
// cluster means any cached value is stale.
func (c *Client) readThrough(key string) (Item, error) {
	start := time.Now()
	if v, ok := c.cache.Get(key); ok {
		// A hit does no wire work: it takes the op's counters, not a
		// batcher.
		c.ops["get"].done(start, nil)
		return Item{Value: v.Data, Version: v.Version, TTL: v.TTL}, nil
	}
	b := c.begin("get")
	return b.end(c.fetchThrough(b, key))
}

// fetchThrough is readThrough past the cache miss: steps 2 and 3.
func (c *Client) fetchThrough(b *batcher, key string) (Item, error) {
	gen := c.cache.Begin(key)
	v, coalesced, err := c.flight.Do(key, func() (nearcache.Value, error) {
		// The strategy's retries (transient and epoch) run INSIDE the
		// flight leader: placement is re-resolved against the refreshed
		// view, and every coalesced waiter shares the one corrected fetch.
		r := c.strat.get(b, []string{key})[0]
		if r.err != nil {
			return nearcache.Value{}, r.err
		}
		return nearcache.Value{Data: r.item.Value, Version: r.item.Version, TTL: r.item.TTL}, nil
	})
	if coalesced {
		c.mCoalesced.Inc()
	}
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			c.cache.Invalidate(key)
		}
		return Item{}, err
	}
	// Only the leader fills: every waiter carries the same bytes, and
	// the leader is the one whose generation predates the fetch.
	if !coalesced {
		c.cache.Put(key, v, gen)
	}
	return Item{Value: v.Data, Version: v.Version, TTL: v.TTL}, nil
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
