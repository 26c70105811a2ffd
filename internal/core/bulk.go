package core

import (
	"cmp"
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

// MGetItems fetches every key, returning the items found plus a per-key
// error map for the keys whose state could not be determined
// (ErrUnavailable etc.). A key in neither map is authoritatively
// absent. The split is what lets a caller — the memcached proxy above
// all — answer a multi-get with an error for an unreachable key instead
// of a silent miss that a cache filler would then treat as permission
// to overwrite. Duplicate keys are fetched once. It is the map-shaped
// face of read: cached keys are served from the near cache without any
// wire work, misses coalesce per key with concurrent readers and fill
// the cache generation-guarded, exactly as single-key reads do.
func (c *Client) MGetItems(keys []string) (map[string]Item, map[string]error) {
	keys = distinct(keys)
	found := make(map[string]Item, len(keys))
	if len(keys) == 0 {
		return found, nil
	}
	res := make([]nearcache.Result, len(keys))
	// One ARPE window slot for the whole call.
	_, closed := c.run(func() (Item, error) {
		c.read(true, keys, res)
		return Item{}, nil
	})
	var failed map[string]error
	for i, key := range keys {
		switch err := cmp.Or(closed, res[i].Err); {
		case err == nil:
			found[key] = Item{Value: res[i].Data, Version: res[i].Version, TTL: res[i].TTL}
		case errors.Is(err, ErrNotFound):
			// absent key: not an error for a bulk read
		default:
			if failed == nil {
				failed = make(map[string]error)
			}
			failed[key] = err
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
	keys = distinct(keys)
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
