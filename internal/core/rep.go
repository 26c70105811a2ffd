package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"ecstore/internal/membership"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// repStrategy implements no-replication (replicas = 1), synchronous
// replication (one replica round at a time) and asynchronous
// replication (overlapped non-blocking replica writes).
type repStrategy struct {
	c        *Client
	replicas int
	async    bool
}

var _ strategy = (*repStrategy)(nil)

// walk runs every key's failover walk in lockstep — the one walk
// behind replicated reads and the coordinator forms of erasure coding
// (Equation 4's T_check + one round trip). Each key's order is its
// width placement servers, distinct (a placement wraps on a small
// cluster, an order does not), healthy first: a server the pool avoids
// is demoted to the back so the common case never waits on a known-bad
// one, and is asked only as a last resort. Round r sends each
// outstanding key's request, built by mk, to the r-th server of its
// order — so one round is one frame per distinct server — and a key
// moves on only when failover says the attempt's transport error is one
// another server can fix. StatusOK ends a key's walk with the answer
// (value copied out of the pooled frame); StatusNotFound from a live
// server is authoritative absence (memcached semantics — evictions are
// cache misses); any other failure is final. A key that exhausts its
// order reports ErrUnavailable wrapping the last failure walked past.
func (c *Client) walk(b *batcher, keys []string, width int,
	mk func(i int) wire.BatchReq, failover func(err error) bool) []result {
	out := make([]result, len(keys))
	// One view snapshot for the whole walk: every key's placement and
	// every sub-op's epoch agree.
	ring, epoch := c.placementSnapshot()
	type walkState struct {
		order   []string
		lastErr error
		done    bool
	}
	// The state of up to 16 keys lives on the stack, as roundBuf's
	// sub-ops do.
	var stateBuf [16]walkState
	states := stateBuf[:]
	if len(keys) > len(states) {
		states = make([]walkState, len(keys))
	}
	states = states[:len(keys)]
	// Every key's order is a window of one backing slice, sized so no
	// append moves it: the batcher's holderBuf when they fit (no walk
	// runs inside another, nor inside a gatherGet).
	orders := b.holderBuf[:0]
	if len(keys)*width > len(b.holderBuf) {
		orders = make([]string, 0, len(keys)*width)
	}
	var avoidBuf [8]string
	avoided := c.pool.Avoided(avoidBuf[:0], c.now)
	for i, key := range keys {
		start := len(orders)
		if orders = ring.AppendN(orders, key, width); len(orders) == start {
			out[i].err, states[i].done = ErrUnavailable, true
			continue
		}
		states[i].order = orders[start:]
		healthOrder(states[i].order, avoided)
	}
	var buf roundBuf
	ops := roundOps(&buf, len(keys))
	for r := 0; ; r++ {
		ops = ops[:0]
		for i := range states {
			st := &states[i]
			switch {
			case st.done:
			case r >= len(st.order):
				out[i].err, st.done = fmt.Errorf("%w: %v", ErrUnavailable, st.lastErr), true
			default:
				if r > 0 {
					c.mFailovers.Inc()
				}
				ops = append(ops, subOp{addr: st.order[r], key: i, req: mk(i)})
			}
		}
		if len(ops) == 0 {
			return out
		}
		b.send(ops, epoch)
		for j := range ops {
			op := &ops[j]
			st := &states[op.key]
			switch {
			case op.err == nil && op.resp.Status == wire.StatusOK:
				out[op.key].item = Item{
					Value:   append([]byte(nil), op.resp.Value...),
					Version: op.resp.Meta.Stripe,
					TTL:     op.resp.TTLSeconds,
				}
				st.done = true
			case op.err == nil && op.resp.Status == wire.StatusNotFound:
				out[op.key].err, st.done = ErrNotFound, true
			case failover(op.err):
				st.lastErr = op.err
			default:
				out[op.key].err, st.done = op.fail(), true
			}
		}
		b.release()
	}
}

// get is the replicated read: the failover walk with one OpGet per
// outstanding key per round, then — while the view drains — one round
// on the draining placements for the keys it found no copy of. Reads
// are idempotent, so the whole read is retried on transient failure,
// and re-resolved on an epoch rejection.
func (r *repStrategy) get(b *batcher, keys []string) []result {
	return r.c.retryKeys(true, func(idx []int) []result {
		keys := subset(keys, idx)
		out := r.c.walk(b, keys, r.replicas,
			func(i int) wire.BatchReq { return wire.BatchReq{Op: wire.OpGet, Key: keys[i]} },
			rpc.IsUnavailable)
		if rings := r.c.view.Rings(); len(rings.Draining) > 0 {
			r.getDraining(b, rings, keys, out)
		}
		return out
	})
}

// getDraining asks, in one round, the servers only a draining placement
// names for every key the walk found no copy of (not found or
// unavailable): data a membership change has not moved yet lives
// there. The first copy in placement order answers the key; a key no
// such server has a copy of keeps the walk's verdict.
func (r *repStrategy) getDraining(b *batcher, rings *membership.Rings, keys []string, out []result) {
	var ops []subOp
	for i, key := range keys {
		if !errors.Is(out[i].err, ErrNotFound) && !errors.Is(out[i].err, ErrUnavailable) {
			continue
		}
		_, others, _ := r.holders(rings, key)
		for _, addr := range others {
			ops = append(ops, subOp{addr: addr, key: i, req: wire.BatchReq{Op: wire.OpGet, Key: key}})
		}
	}
	if len(ops) == 0 {
		return
	}
	b.send(ops, rings.View.Epoch)
	for j := range ops {
		if op := &ops[j]; op.err == nil && op.resp.Status == wire.StatusOK && out[op.key].err != nil {
			out[op.key] = result{item: Item{
				Value:   append([]byte(nil), op.resp.Value...),
				Version: op.resp.Meta.Stripe,
				TTL:     op.resp.TTLSeconds,
			}}
		}
	}
	b.release()
}

// set is the replicated write. Async-Rep issues every replica write of
// every key in one round and waits for all (Equation 6: max over
// replicas of (L + D/B)); Sync-Rep keeps its blocking ladder per key
// (Equation 2: F * (L + D/B) — replica j only after replica j-1 landed)
// by walking replica-index rounds, each round still one frame per
// server. Either way a key's error is its first failure in placement
// order, reported only after every issued write was waited out: the
// executor waits each round fully, so no replica write keeps landing
// after the failure is reported — a caller acting on the error
// (rewrite, delete, give up) never races its own torn write.
func (r *repStrategy) set(b *batcher, writes []write) []result {
	out := make([]result, len(writes))
	ring, epoch := r.c.placementSnapshot()
	step := r.replicas
	if !r.async {
		step = 1
	}
	var buf roundBuf
	ops := roundOps(&buf, len(writes)*step)
	for lo := 0; lo < r.replicas; lo += step {
		ops = ops[:0]
		for i, w := range writes {
			if out[i].err != nil {
				continue
			}
			// Every round resolves against the same ring snapshot, so a
			// Sync-Rep key's later rounds see the placement its first did.
			placement := placementOn(ring, w.key, r.replicas)
			if placement == nil {
				out[i].err = ErrUnavailable
				continue
			}
			if lo == 0 {
				// The write's version is minted client-side and carried in
				// Meta.Stripe (the same field chunk writes use), so every
				// replica stores one CAS token for this logical write.
				out[i].item.Version = wire.NewStripeID()
			}
			for _, addr := range placement[lo : lo+step] {
				ops = append(ops, subOp{addr: addr, key: i, req: wire.BatchReq{
					Op: wire.OpSet, Key: w.key, Value: w.value,
					TTLSeconds: wire.TTLSeconds(w.ttl),
					Meta:       wire.ECMeta{Stripe: out[i].item.Version},
				}})
			}
		}
		b.send(ops, epoch)
		for j := range ops {
			if err := ops[j].fail(); err != nil && out[ops[j].key].err == nil {
				out[ops[j].key] = result{err: err}
			}
		}
		b.release()
	}
	return out
}

// del is the replicated delete: every (key, replica) delete in one
// round, classified per key — no replica reachable is unavailability,
// every reachable replica answering not-found an authoritative miss
// (memcached delete semantics). A non-zero expect makes every delete
// conditional on the stored version (DeleteCas), decided where Cas
// decides: the first current replica holding the key, in placement
// order; its Exists is a conflict. After a deletion, sendRest removes
// the stale replicas that answered Exists. While the view drains, the
// round also deletes the copies only a draining placement names; a
// removal there counts as a deletion, a failure or Exists there does
// not.
func (r *repStrategy) del(b *batcher, keys []string, expect uint64) []result {
	out := make([]result, len(keys))
	rings := r.c.view.Rings()
	var buf roundBuf
	ops := r.delOps(roundOps(&buf, len(keys)*r.replicas), rings, keys, expect, out)
	b.send(ops, rings.View.Epoch)
	rest := r.delVerdict(ops, out, nil)
	b.release()
	sendRest(b, rest, rings.View.Epoch)
	return out
}

// delOps appends every key's deletes to ops, one contiguous run per key:
// its current placement first, then the servers only a draining one
// names. A key with no placement is answered unavailable in out.
func (r *repStrategy) delOps(ops []subOp, rings *membership.Rings, keys []string, expect uint64, out []result) []subOp {
	for i, key := range keys {
		placement := placementOn(rings.Current, key, r.replicas)
		if placement == nil {
			out[i].err = ErrUnavailable
			continue
		}
		if len(rings.Draining) > 0 {
			_, others, _ := r.holders(rings, key)
			placement = append(placement, others...)
		}
		for _, addr := range placement {
			ops = append(ops, subOp{addr: addr, key: i, req: wire.BatchReq{Op: wire.OpDelete, Key: key, Compare: expect}})
		}
	}
	return ops
}

// delVerdict classifies the answers to delOps' round into out, and
// appends to rest the Exists answers of each key it deleted.
func (r *repStrategy) delVerdict(ops []subOp, out []result, rest []subOp) []subOp {
	for lo := 0; lo < len(ops); {
		i, first := ops[lo].key, lo
		decider, live, stale, deleted := -1, false, false, false
		for ; lo < len(ops) && ops[lo].key == i; lo++ {
			if ops[lo].err != nil {
				continue
			}
			current := lo-first < r.replicas
			switch ops[lo].resp.Status {
			case wire.StatusOK, wire.StatusExists:
				if current && decider < 0 {
					decider = lo
				}
				live = live || current
				deleted = deleted || ops[lo].resp.Status == wire.StatusOK
			case wire.StatusNotFound:
				live = live || current
			case wire.StatusWrongEpoch:
				// Placement was computed against the wrong ring; surface the
				// epoch error so the retry layer re-resolves — classifying the
				// replica as dead could misreport NotFound or Unavailable.
				stale = stale || current
			}
		}
		switch {
		case decider >= 0 && ops[decider].resp.Status == wire.StatusExists:
			out[i].err = ErrCASConflict
			continue
		case stale && deleted:
			out[i].err = errDeletedStale
		case stale:
			out[i].err = wire.ErrWrongEpoch
		case !live:
			out[i].err = ErrUnavailable
		case !deleted:
			out[i].err = ErrNotFound
		}
		if deleted {
			rest = appendExisting(rest, ops[first:lo])
		}
	}
	return rest
}

// appendExisting appends the holders in ops that answered Exists to
// rest, each as a delete of the version it reported.
func appendExisting(rest, ops []subOp) []subOp {
	for _, op := range ops {
		if op.err == nil && op.resp.Status == wire.StatusExists {
			rest = append(rest, subOp{addr: op.addr, req: wire.BatchReq{Op: wire.OpDelete, Key: op.req.Key, Chunk: op.req.Chunk, Compare: op.resp.Meta.Stripe}})
		}
	}
	return rest
}

// sendRest removes what a delete's verdict left in rest, in one round
// whose answers do not change it.
func sendRest(b *batcher, rest []subOp, epoch uint64) {
	if len(rest) > 0 {
		b.send(rest, epoch)
		b.release()
	}
}

// compareSet is the conditional write for replication. The decision is
// serialized through the first reachable replica in FIXED placement
// order — every writer walks the same order, and the server
// checks-and-applies the OpCompareSet under one shard lock, so
// concurrent conditional writes of one key race at one decider and
// exactly one wins. Each step of the walk is a round of one sub-op.
// Once decided, the remaining replicas are converged in ONE round under
// one deadline. A Cas converges them with plain sets of the new
// version: every write lands on all replicas, so they hold the version
// just checked by construction and forcing them cannot lose a newer
// value. The round is waited out and its errors ignored: a replica that
// is down for it is converged later by the anti-entropy scrubber; until
// then a failover read may observe the previous version — the same
// read-your-writes window async replication already has. An add
// converges with the add itself, since a decider that restarted empty
// says nothing of the others: a replica answering Exists holds a value
// the add must not overwrite, so the new version is deleted wherever it
// landed, in one round of deletes conditional on it, and the add loses.
func (r *repStrategy) compareSet(b *batcher, key string, value []byte, ttl time.Duration, expect uint64) (uint64, error) {
	placement, epoch := r.c.placement(key, r.replicas)
	placement = distinct(placement)
	if len(placement) == 0 {
		return 0, ErrUnavailable
	}
	set := wire.BatchReq{
		Op: wire.OpCompareSet, Key: key, Value: value, TTLSeconds: wire.TTLSeconds(ttl),
		Compare: expect, Meta: wire.ECMeta{Stripe: wire.NewStripeID()},
	}
	version := set.Meta.Stripe
	var lastErr error
	for i, addr := range placement {
		step := [1]subOp{{addr: addr, req: set}}
		b.send(step[:], epoch)
		err := step[0].fail()
		b.release()
		switch {
		case err == nil:
			if expect != wire.CompareAbsent {
				set.Op, set.Compare = wire.OpSet, 0
			}
			var buf roundBuf
			rest := roundOps(&buf, len(placement)-1)
			for j, other := range placement {
				if j != i {
					rest = append(rest, subOp{addr: other, req: set})
				}
			}
			b.send(rest, epoch)
			exists := slices.ContainsFunc(rest, func(op subOp) bool { return errors.Is(op.fail(), wire.ErrExists) })
			b.release()
			if !exists {
				return version, nil
			}
			undo := roundOps(&buf, len(placement))
			for _, addr := range placement {
				undo = append(undo, subOp{addr: addr, req: wire.BatchReq{Op: wire.OpDelete, Key: key, Compare: version}})
			}
			sendRest(b, undo, epoch)
			return 0, ErrCASConflict
		case errors.Is(err, wire.ErrExists):
			return 0, ErrCASConflict
		case errors.Is(err, wire.ErrNotFound):
			return 0, ErrNotFound
		case rpc.IsUnavailable(err):
			lastErr = err
		default:
			return 0, err
		}
	}
	return 0, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
}
