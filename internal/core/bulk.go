package core

import (
	"errors"
	"fmt"
	"sort"

	"ecstore/internal/nearcache"
)

// The bulk APIs (MSet / MGet / MGetItems / MDelete) call the same
// strategy methods the single-key APIs do, with many keys instead of
// one: sub-operations are grouped per target server and sent as ONE
// frame per server per round (DESIGN §12), so a 64-key multi-get on a
// 5-server cluster costs at most one request frame per contacted server
// instead of 64. Per-key semantics — failover walks,
// NotFound-vs-Unavailable classification, torn-write discipline,
// retries — are not merely identical to the single-key ones, they are
// the same code.

// bulkOp runs one M* call: one ARPE window slot for the whole call (the
// executor bounds its own per-server fan-out), the per-op accounting
// every operation gets, and the bulk frame/sub-op series.
func (c *Client) bulkOp(op string, fn func(b *batcher) error) error {
	_, err := c.run(func() (Item, error) {
		b := c.begin(op)
		b.bulk = true
		return b.end(Item{}, fn(b))
	})
	return err
}

// dedupeKeys returns keys with duplicates removed, first occurrence
// order preserved: a duplicated key must not issue duplicate wire work.
func dedupeKeys(keys []string) []string {
	seen := make(map[string]bool, len(keys))
	out := make([]string, 0, len(keys))
	for _, key := range keys {
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	return out
}

// firstFailure names the first failed key of a bulk write, by position
// — the callers sort their keys, so the reported error is deterministic
// across runs (map iteration order never picks it).
func firstFailure(op string, keys []string, res []result) error {
	for i, r := range res {
		if r.err != nil {
			return fmt.Errorf("core: %s %q: %w", op, keys[i], r.err)
		}
	}
	return nil
}

// MSet stores every pair — chunked and grouped so each target server
// receives one frame per round. All writes are attempted; the error
// identifies the FIRST failed key in sorted key order and wraps the
// per-key cause.
func (c *Client) MSet(pairs map[string][]byte) error {
	if len(pairs) == 0 {
		return nil
	}
	writes := make([]write, 0, len(pairs))
	for key, value := range pairs {
		writes = append(writes, write{key: key, value: value})
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].key < writes[j].key })
	keys := keysOf(writes)
	return c.bulkOp("mset", func(b *batcher) error {
		res := c.retryKeys(false, func(idx []int) []result {
			return c.strat.set(b, subset(writes, idx))
		})
		for _, key := range keys {
			c.invalidate(key)
		}
		return firstFailure("mset", keys, res)
	})
}

// errSomeFailed marks an MGetItems call whose failed map is non-empty,
// for the per-op error counter.
var errSomeFailed = errors.New("core: some keys failed")

// MGetItems fetches every key, returning the items found plus a per-key
// error map for the keys whose state could not be determined
// (ErrUnavailable etc.). A key in neither map is authoritatively
// absent. The split is what lets a caller — the memcached proxy above
// all — answer a multi-get with an error for an unreachable key instead
// of a silent miss that a cache filler would then treat as permission
// to overwrite. Duplicate keys are fetched once. Cached keys are served
// from the near cache without any wire work; misses coalesce per key
// with concurrent readers through the singleflight group and fill the
// cache generation-guarded, exactly as single-key reads do.
func (c *Client) MGetItems(keys []string) (map[string]Item, map[string]error) {
	keys = dedupeKeys(keys)
	found := make(map[string]Item, len(keys))
	if len(keys) == 0 {
		return found, nil
	}
	var failed map[string]error
	err := c.bulkOp("mget", func(b *batcher) error {
		misses := make([]string, 0, len(keys))
		for _, key := range keys {
			if v, ok := c.cache.Get(key); ok {
				found[key] = Item{Value: v.Data, Version: v.Version, TTL: v.TTL}
			} else {
				misses = append(misses, key)
			}
		}
		if len(misses) == 0 {
			return nil
		}
		values, errs, joined := c.flight.DoBulk(misses, func(lead []string) (map[string]nearcache.Value, map[string]error) {
			// Generations are drawn BEFORE the fetch so a concurrent
			// local write's invalidation in between wins and the fill is
			// dropped — the bulk form of readThrough's discipline.
			gens := make([]uint64, len(lead))
			for i, key := range lead {
				gens[i] = c.cache.Begin(key)
			}
			vals := make(map[string]nearcache.Value, len(lead))
			var ferrs map[string]error
			for i, r := range c.strat.get(b, lead) {
				key := lead[i]
				if r.err != nil {
					if errors.Is(r.err, ErrNotFound) {
						// Authoritative absence: any cached value is stale.
						c.cache.Invalidate(key)
					}
					if ferrs == nil {
						ferrs = make(map[string]error)
					}
					ferrs[key] = r.err
					continue
				}
				v := nearcache.Value{Data: r.item.Value, Version: r.item.Version, TTL: r.item.TTL}
				vals[key] = v
				c.cache.Put(key, v, gens[i])
			}
			return vals, ferrs
		})
		if joined > 0 {
			c.mCoalesced.Add(int64(joined))
		}
		for key, v := range values {
			found[key] = Item{Value: v.Data, Version: v.Version, TTL: v.TTL}
		}
		for key, err := range errs {
			if errors.Is(err, ErrNotFound) {
				continue // absent key: not an error for a bulk read
			}
			if failed == nil {
				failed = make(map[string]error)
			}
			failed[key] = err
		}
		if len(failed) > 0 {
			return errSomeFailed
		}
		return nil
	})
	if errors.Is(err, ErrClosed) {
		failed = make(map[string]error, len(keys))
		for _, key := range keys {
			failed[key] = ErrClosed
		}
	}
	return found, failed
}

// MGet fetches every key. The result
// holds the keys that were found; keys that do not exist are simply
// absent. The error reports the first infrastructure failure in key
// order (ErrUnavailable etc.) — ErrNotFound is not an error for MGet.
// Callers that need to know WHICH keys failed use MGetItems.
func (c *Client) MGet(keys []string) (map[string][]byte, error) {
	found, failed := c.MGetItems(keys)
	out := make(map[string][]byte, len(found))
	for k, item := range found {
		out[k] = item.Value
	}
	for _, k := range keys {
		if err, ok := failed[k]; ok {
			return out, err
		}
	}
	return out, nil
}

// MDelete removes every key. All deletes are attempted; the error
// identifies the FIRST failed key in sorted key order and wraps the
// per-key cause — including ErrNotFound when a key was absent
// everywhere, matching Delete.
func (c *Client) MDelete(keys []string) error {
	keys = dedupeKeys(keys)
	if len(keys) == 0 {
		return nil
	}
	sort.Strings(keys)
	return c.bulkOp("mdelete", func(b *batcher) error {
		res := c.retryKeys(false, func(idx []int) []result {
			return c.strat.del(b, subset(keys, idx))
		})
		for _, key := range keys {
			c.invalidate(key)
		}
		return firstFailure("mdelete", keys, res)
	})
}
