package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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
			c.cache.Invalidate(key)
		}
		return firstFailure("mset", keys, res)
	})
}

// sortedKeys returns the distinct keys of a bulk write, sorted, in a
// slice of their own: a duplicated key must not issue duplicate wire
// work, and the sort makes the reported failure deterministic.
func sortedKeys(keys []string) []string {
	keys = slices.Clone(keys)
	slices.Sort(keys)
	return slices.Compact(keys)
}

// readKeys returns the distinct keys of a bulk read in a slice of their
// own (read reorders what it is handed), in the order the caller listed
// them: the near cache sees a read's keys in that order, so which
// entries stay warm does not depend on how a call was deduplicated.
// A sorted scratch copy, in the same allocation, finds duplicates; only
// a call that has some pays for distinct's map.
func readKeys(keys []string) []string {
	buf := make([]string, 2*len(keys))
	sorted := buf[len(keys):]
	copy(sorted, keys)
	slices.Sort(sorted)
	if len(slices.Compact(sorted)) < len(keys) {
		return distinct(keys)
	}
	return append(buf[:0:len(keys)], keys...)
}

// MGetEach is the bulk read every map-shaped face is built on —
// MGetItems here, the memcached proxy's GetMulti above — so each face
// builds its own map straight from the results and nothing builds one
// in between. It reads the distinct keys of keys in one call of read:
// cached keys are served from the near cache without any wire work,
// misses coalesce per key with concurrent readers and fill the cache
// generation-guarded, exactly as single-key reads do. Then it calls
// each once per distinct key, on the calling goroutine and in no
// particular order, with the key's item or the error that kept it from
// being read: ErrNotFound for an authoritatively absent key,
// ErrUnavailable and the like for one whose state could not be
// determined. The item's Value is read-only (Item).
func (c *Client) MGetEach(keys []string, each func(key string, item Item, err error)) {
	keys = readKeys(keys)
	if len(keys) == 0 {
		return
	}
	res := make([]nearcache.Result, len(keys))
	// One ARPE window slot for the whole call.
	_, closed := c.run(func() (Item, error) {
		c.read(keys, res)
		return Item{}, nil
	})
	for i, key := range keys {
		r := &res[i]
		each(key, Item{Value: r.Data, Version: r.Version, TTL: r.TTL}, cmp.Or(closed, r.Err))
	}
}

// MGetItems fetches every key, returning the items found plus a per-key
// error map for the keys whose state could not be determined
// (ErrUnavailable etc.). A key in neither map is authoritatively
// absent. The split is what lets a caller — the memcached proxy above
// all — answer a multi-get with an error for an unreachable key instead
// of a silent miss that a cache filler would then treat as permission
// to overwrite. It is the map face of MGetEach.
func (c *Client) MGetItems(keys []string) (map[string]Item, map[string]error) {
	found := make(map[string]Item, len(keys))
	var failed map[string]error
	c.MGetEach(keys, func(key string, item Item, err error) {
		switch {
		case err == nil:
			found[key] = item
		case errors.Is(err, ErrNotFound):
			// absent key: not an error for a bulk read
		default:
			if failed == nil {
				failed = make(map[string]error)
			}
			failed[key] = err
		}
	})
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
	keys = sortedKeys(keys)
	if len(keys) == 0 {
		return nil
	}
	return c.bulkOp("mdelete", func(b *batcher) error {
		res := c.retryKeys(false, func(idx []int) []result {
			return c.strat.del(b, subset(keys, idx), 0)
		})
		for _, key := range keys {
			c.cache.Invalidate(key)
		}
		return firstFailure("mdelete", keys, res)
	})
}
