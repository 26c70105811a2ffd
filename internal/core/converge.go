package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/membership"
	"ecstore/internal/wire"
)

// Convergence is the background half of every resilience mode: bring
// one key's copies or chunks to where the current ring wants them, in
// full. Each mode writes it once — one probe round over the key's
// source placements, pick the authoritative copy, reconstruct, one
// round of refills, one round of drains — through the same batcher the
// foreground uses. The sources come from one view snapshot: the current
// placement, plus every draining ring's placement that differs from it
// (membership.View.Draining). Repair is converge; Verify is the probe
// plus an attestation and no writes.

// RepairReport describes what Repair did for one key.
type RepairReport struct {
	// Checked is the number of chunk/replica locations probed.
	Checked int
	// Missing is how many current locations lacked the authoritative
	// copy (absent, unreachable or stale) before repair.
	Missing int
	// Rewritten is how many were restored.
	Rewritten int
	// Dropped is how many copies were drained from locations only a
	// draining ring still names.
	Dropped int
	// BytesMoved is the payload volume of the rewrites that landed —
	// the background daemon (internal/scrub) sums it into its reports.
	BytesMoved int64
	// Moved reports that a draining ring places the key elsewhere: the
	// rewrites and drains moved it onto the current placement.
	Moved bool
}

// String renders the report on one line.
func (r RepairReport) String() string {
	return fmt.Sprintf("checked=%d missing=%d rewritten=%d dropped=%d bytes=%d moved=%v",
		r.Checked, r.Missing, r.Rewritten, r.Dropped, r.BytesMoved, r.Moved)
}

// Repair brings key to full redundancy at its current placement: it
// probes every chunk or replica location of the current placement and
// of every draining placement that differs, reconstructs lost chunks
// from the survivors (or re-reads the value from a live replica),
// rewrites whatever the current holders miss and — for a key a draining
// ring places elsewhere, once every rewrite landed — drains the copies
// only a draining ring names. It addresses the paper's future-work item
// of recovering redundancy after node failures (a crashed-and-restarted
// server comes back empty) and moves data after a membership change. A
// holder still down stays unrewritten: the report then shows Rewritten
// below Missing (partial repair), not an error.
//
// A key that did not move is rewritten unconditionally: only a rewrite
// reconverges holders with diverged or corrupt copies. A moved key's
// writes are conditional (add-if-absent or stripe-gated) and every drain
// is version/stripe-conditional, so a key being overwritten concurrently
// is never clobbered and a racing write is never deleted. The rounds
// address the servers of every source, departing members included, and
// carry the epoch of the view the placements came from: every server a
// view names has been pushed that view (Client.PushView).
//
// Repair returns ErrUnavailable when too few chunks survive to
// reconstruct, and ErrNotFound when no trace of the key exists.
func (c *Client) Repair(key string) (RepairReport, error) {
	b := c.begin("repair")
	// The strategies bail out with wire.ErrWrongEpoch before any write
	// lands on a stale ring; adopt the newer view and re-resolve, the
	// same transparent retry every data-path operation gets.
	report, err := epochRetry(c, func() (RepairReport, error) { return c.strat.converge(b, key) })
	_, err = b.end(Item{}, err)
	return report, err
}

// Verify scrubs one key's redundancy. For erasure-coded values it
// fetches every chunk and checks that the stored parity is consistent
// with the data chunks, detecting silent corruption (not just loss);
// it returns true when all K+M chunks are present and consistent. For
// replicated values it checks that every replica location holds a
// byte-identical copy — there is no parity, but a missing or diverged
// replica is exactly what the anti-entropy scrubber must catch before
// the next failure makes it data loss. An unreachable holder means
// full redundancy cannot be attested (false, nil — the repair decision
// is the caller's); every holder answering not-found is ErrNotFound. A
// key a draining ring places elsewhere is false without a probe: it has
// a move to finish, which is Repair's.
func (c *Client) Verify(key string) (bool, error) {
	b := c.begin("verify")
	ok, err := epochRetry(c, func() (bool, error) { return c.strat.verify(b, key) })
	_, err = b.end(Item{}, err)
	return ok, err
}

// sourcePlacements resolves key's n chunk holders on the current ring,
// then on every draining ring: [0] is the current placement (nil: the
// ring is empty), and every other entry a distinct placement the key
// is moving away from.
func sourcePlacements(rings *membership.Rings, key string, n int) [][]string {
	cur := placementOn(rings.Current, key, n)
	if cur == nil {
		return nil
	}
	places := [][]string{cur}
	for _, ring := range rings.Draining {
		if p := placementOn(ring, key, n); !slices.ContainsFunc(places, func(q []string) bool { return slices.Equal(p, q) }) {
			places = append(places, p)
		}
	}
	return places
}

// holders resolves key's replica set on the current ring (cur) and the
// servers only a draining ring's replica set names (others); moved
// reports a draining replica set other than the current one.
func (r *repStrategy) holders(rings *membership.Rings, key string) (cur, others []string, moved bool) {
	cur = distinct(placementOn(rings.Current, key, r.replicas))
	for _, ring := range rings.Draining {
		p := distinct(placementOn(ring, key, r.replicas))
		moved = moved || !sameMembers(p, cur)
		for _, addr := range p {
			if !slices.Contains(cur, addr) && !slices.Contains(others, addr) {
				others = append(others, addr)
			}
		}
	}
	return cur, others, moved
}

// settle sends a convergence's planned writes: the refills as one
// round, then — for a moved key, and only when every refill landed or
// lost to something newer — the drains as another, so a copy is never
// removed while the holder meant to replace it is still empty. An
// unmoved key plans no drains, and a refill that failed is partial
// repair (refilled below missing), not an error: the holder is still
// down, and the next scrub cycle retries it. A drain that cannot reach
// a server view no longer names is not a failure either: the refills
// landed, and a removed server that crashed would otherwise hold the
// key unconverged, and the view draining, forever.
func (b *batcher) settle(view membership.View, v RepairReport, refills, drains []subOp) (RepairReport, error) {
	v.Missing = len(refills)
	b.send(refills, view.Epoch)
	var err error
	v.Rewritten, v.BytesMoved, err = landed(refills)
	b.release() // the probe's leases fed the refills; nothing aliases them now
	if !v.Moved {
		return v, nil
	}
	if err != nil {
		return v, err
	}
	b.send(drains, view.Epoch)
	v.Dropped, _, err = landed(slices.DeleteFunc(drains, func(op subOp) bool {
		return op.err != nil && !view.Contains(op.addr)
	}))
	return v, err
}

// landed tallies a round of refills or drains: how many took effect,
// the payload bytes they carried, and the first failure that is not a
// lost race. A holder answering Exists or NotFound changed after the
// probe — what it holds now is newer (a refill leaves it) or is not
// the copy that was accounted for (a drain leaves it) — and that is
// convergence, not failure.
func landed(ops []subOp) (n int, size int64, err error) {
	for i := range ops {
		switch e := ops[i].fail(); {
		case e == nil:
			n++
			size += int64(len(ops[i].req.Value))
		case errors.Is(e, wire.ErrExists), errors.Is(e, wire.ErrNotFound):
		case err == nil:
			err = e
		}
	}
	return n, size, err
}

// copies is one round of whole-value reads of a key from a list of
// source holders, results by source position. The response bodies stay
// leased on the batcher until release.
type copies struct {
	ops []subOp
	// first is the authoritative copy: the first source in order that
	// answered with one (-1: none), matching the read path, so
	// convergence makes durable exactly what reads observe.
	first      int
	notFound   int  // sources that answered an authoritative miss
	wrongEpoch bool // a source rejected the placement's epoch
}

// probe reads key from every source in one round and classifies each
// answer once: copy, not-found, epoch rejection, or unreachable
// (anything else).
func (r *repStrategy) probe(b *batcher, key string, epoch uint64, sources []string) copies {
	p := copies{ops: make([]subOp, len(sources)), first: -1}
	for i, addr := range sources {
		p.ops[i] = subOp{addr: addr, req: wire.BatchReq{Op: wire.OpGet, Key: key}}
	}
	b.send(p.ops, epoch)
	for i := range p.ops {
		switch op := &p.ops[i]; {
		case op.err != nil:
		case op.resp.Status == wire.StatusOK && p.first < 0:
			p.first = i
		case op.resp.Status == wire.StatusNotFound:
			p.notFound++
		case op.resp.Status == wire.StatusWrongEpoch:
			p.wrongEpoch = true
		}
	}
	return p
}

// holds reports whether source i answered with a copy; same, whether
// that copy is byte-identical to the authoritative one.
func (p *copies) holds(i int) bool {
	return p.ops[i].err == nil && p.ops[i].resp.Status == wire.StatusOK
}

func (p *copies) same(i int) bool {
	return p.holds(i) && bytes.Equal(p.ops[i].resp.Value, p.ops[p.first].resp.Value)
}

// verify for replication: all replica locations must answer with
// byte-identical copies. A holder that answers not-found while another
// holds the value is a lost replica, one that differs a diverged one —
// real under async replication torn by a crash.
func (r *repStrategy) verify(b *batcher, key string) (bool, error) {
	rings := r.c.view.Rings()
	cur, _, moved := r.holders(rings, key)
	switch {
	case len(cur) == 0:
		return false, ErrUnavailable
	case moved:
		return false, nil
	}
	defer b.release()
	p := r.probe(b, key, rings.View.Epoch, cur)
	switch {
	case p.wrongEpoch:
		return false, wire.ErrWrongEpoch
	case p.notFound == len(cur):
		return false, ErrNotFound
	}
	healthy := p.first >= 0
	for i := 0; healthy && i < len(cur); i++ {
		healthy = p.same(i)
	}
	return healthy, nil
}

// converge for replication. The sources are the current holders, then
// the servers only a draining placement names; the first copy in that
// order is authoritative — the read path's order, so convergence makes
// durable what reads observe — and carries its version and remaining
// TTL into every refill so the reconverged replicas agree on the CAS
// token too.
//
// An unmoved key's repair rewrites, unconditionally, every holder whose
// copy is absent, unreachable or diverged — only a rewrite reconverges
// two holders answering with different bytes. A moved key adds the
// value (CompareAbsent) to the current holders that showed none: a
// holder that has the key by then — from a concurrent overwrite — keeps
// what it has. It then drains the servers only a draining placement
// names, each conditional on the version it showed, so a write that
// raced past the probe keeps its copy.
func (r *repStrategy) converge(b *batcher, key string) (RepairReport, error) {
	rings := r.c.view.Rings()
	cur, others, moved := r.holders(rings, key)
	if len(cur) == 0 {
		return RepairReport{}, ErrUnavailable
	}
	sources := append(slices.Clip(cur), others...)
	defer b.release()
	p := r.probe(b, key, rings.View.Epoch, sources)
	v := RepairReport{Checked: len(sources), Moved: moved}
	switch {
	case p.wrongEpoch:
		// Stale placement snapshot: let the epoch retry refresh the view
		// and re-resolve, rather than writing against the wrong ring.
		return v, wire.ErrWrongEpoch
	case p.first >= 0:
	case p.notFound == len(sources):
		// Every location is live and authoritatively empty.
		return v, ErrNotFound
	default:
		return v, fmt.Errorf("%w: no reachable copy of %q", ErrUnavailable, key)
	}
	auth := &p.ops[p.first].resp
	refill := wire.BatchReq{
		Op: wire.OpSet, Key: key, Value: auth.Value, TTLSeconds: auth.TTLSeconds,
		Meta: wire.ECMeta{Stripe: auth.Meta.Stripe},
	}
	if v.Moved {
		refill.Op, refill.Compare = wire.OpCompareSet, wire.CompareAbsent
	}
	var refills, drains []subOp
	for i, addr := range sources {
		switch {
		case i >= len(cur):
			// A server only a draining placement names that answered
			// not-found has nothing to drain; an unreachable one is still
			// asked, so its failure keeps the key unconverged.
			version := auth.Meta.Stripe
			if p.holds(i) {
				version = p.ops[i].resp.Meta.Stripe
			}
			if p.ops[i].err != nil || p.holds(i) {
				drains = append(drains, subOp{addr: addr, req: wire.BatchReq{
					Op: wire.OpDelete, Key: key, Compare: version,
				}})
			}
		case !v.Moved && !p.same(i), v.Moved && !p.holds(i):
			refills = append(refills, subOp{addr: addr, req: refill})
		}
	}
	return b.settle(rings.View, v, refills, drains)
}

// probe fetches chunk i of key from position i's holder in every source
// placement (places[0] the current one) in one round, asking a holder
// an earlier placement names for the same position only once; a server
// holding two chunk indices gets them in one frame. It returns the
// chunks grouped by stripe (aliasing response bodies the batcher holds
// until release), the stripe observed at each location (at[s][i]; 0 =
// absent, unreadable or not probed) and the number of locations probed.
func (e *ecStrategy) probe(b *batcher, key string, epoch uint64, places [][]string) (st gather, at [][]uint64, probed int) {
	n := e.k + e.m
	st.ChunkCollector = wire.NewChunkCollector(e.k, n)
	stripes := make([]uint64, len(places)*n)
	at = make([][]uint64, len(places))
	for s := range at {
		at[s] = stripes[s*n : (s+1)*n]
	}
	ops := make([]subOp, 0, len(stripes))
	var keyBuf [8]string
	keys := wire.AppendChunkKeys(keyBuf[:0], key, 0, n)
	eachSource(places, 0, func(s, i int) {
		// key is the location's slot in stripes.
		ops = append(ops, subOp{addr: places[s][i], key: s*n + i, req: wire.BatchReq{
			Op: wire.OpGetChunk, Key: keys[i],
		}})
	})
	b.send(ops, epoch)
	for j := range ops {
		stripes[ops[j].key] = st.classify(&ops[j])
	}
	return st, at, len(ops)
}

// eachSource calls fn for every position i of every placement s >= from
// whose holder no earlier placement names for the same position: a
// chunk that did not move has one holder, asked once.
func eachSource(places [][]string, from int, fn func(s, i int)) {
	for s := from; s < len(places); s++ {
		for i, addr := range places[s] {
			if !slices.ContainsFunc(places[:s], func(p []string) bool { return p[i] == addr }) {
				fn(s, i)
			}
		}
	}
}

// verify for erasure coding: one stripe on all K+M locations, and its
// parity consistent with its data. A location that is missing,
// unreachable, corrupt or on another stripe (mixed writes) fails the
// attestation without an error — it needs repair.
func (e *ecStrategy) verify(b *batcher, key string) (bool, error) {
	n := e.k + e.m
	rings := e.c.view.Rings()
	places := sourcePlacements(rings, key, n)
	switch {
	case places == nil:
		return false, ErrUnavailable
	case len(places) > 1:
		return false, nil
	}
	defer b.release()
	st, at, _ := e.probe(b, key, rings.View.Epoch, places)
	win := st.Best()
	switch {
	case st.wrongEpoch:
		return false, wire.ErrWrongEpoch
	case st.notFound == n:
		return false, ErrNotFound
	case win == nil:
		return false, nil
	}
	for _, stripe := range at[0] {
		if stripe != win.Stripe {
			return false, nil
		}
	}
	start := time.Now()
	ok, err := e.code.Verify(win.Chunks())
	b.code += time.Since(start)
	return ok, err
}

// converge for erasure coding: collect the key's chunks from every
// source placement, take the winning stripe, reconstruct what no source
// holds, write each chunk its current holder lacks, then — for a moved
// key — drain the draining-placement holders whose chunk index moved.
func (e *ecStrategy) converge(b *batcher, key string) (RepairReport, error) {
	n := e.k + e.m
	rings := e.c.view.Rings()
	places := sourcePlacements(rings, key, n)
	if places == nil {
		return RepairReport{}, ErrUnavailable
	}
	cur := places[0]
	defer b.release()
	st, at, probed := e.probe(b, key, rings.View.Epoch, places)
	v := RepairReport{Checked: probed, Moved: len(places) > 1}
	win := st.Best()
	newest, elsewhere := slices.Max(at[0]), uint64(0)
	for _, held := range at[1:] {
		elsewhere = max(elsewhere, slices.Max(held))
	}
	switch {
	case st.wrongEpoch:
		// Stale placement snapshot: bail out so the epoch retry
		// re-resolves before any write lands on the wrong ring.
		return v, wire.ErrWrongEpoch
	case win != nil:
	case st.Seen() == 0 && st.notFound == probed:
		return v, ErrNotFound
	case st.reachable < probed:
		return v, fmt.Errorf("%w: no stripe of %q has %d chunks", ErrUnavailable, key, e.k)
	case v.Moved && newest > elsewhere:
		// A live overwrite smears the (non-atomic) probe across several
		// stripes, so no single stripe may show K chunks even though the
		// key is perfectly healthy. Every probe answered and the newest
		// chunk observed sits at the current placement, strictly newer
		// than anything only a draining placement holds: the key is owned
		// by an epoch-current writer, its stripes are already routed by
		// the current ring and there is nothing to refill. The leftovers
		// can go right now — all are strictly older than the supersession
		// winner, so the stripe-conditional drain only removes copies no
		// reader can ever need. A leftover it misses (gone already,
		// unreachable) waits for a later pass and is never worth failing
		// the convergence over.
		drains := e.drains(key, places, at, newest)
		b.send(drains, rings.View.Epoch)
		v.Dropped, _, _ = landed(drains)
		return v, nil
	default:
		// Every chunk holder of every source is alive and answered, yet no
		// stripe retains K chunks: the value is irrecoverably lost (more
		// than M holders crashed empty before a repair could run). Leaving
		// the orphan chunks behind would make every future read and every
		// scrub cycle fail on a value that cannot come back, so treat
		// this as authoritative loss: purge the remnants and report a
		// clean miss.
		if err := e.del(b, []string{key})[0].err; err != nil && !errors.Is(err, ErrNotFound) {
			return v, err
		}
		return v, ErrNotFound
	}

	// An unmoved key's repair rewrites whatever does not hold the winning
	// stripe's chunk — lost, corrupt, or from a superseded or torn write.
	// A moved key keeps what is at least as new: stripe IDs are
	// time-ordered, and a newer one is a concurrent overwrite the current
	// ring already routed correctly.
	var need, lost []int
	chunks := win.Chunks()
	for i, held := range at[0] {
		if held != win.Stripe && (!v.Moved || held < win.Stripe) {
			need = append(need, i)
		}
		if chunks[i] == nil {
			lost = append(lost, i)
		}
	}
	if len(need) > 0 && len(lost) > 0 {
		start := time.Now()
		if err := e.code.Reconstruct(chunks); err != nil {
			return v, err
		}
		b.code += time.Since(start)
		e.c.mReconstructs.Inc()
		// The rebuilt chunks were drawn from the shared shard pool; the
		// refills copy them into their payloads, so hand them back once
		// every write has completed. Surviving chunks are network-owned.
		defer func() {
			for _, i := range lost {
				erasure.DefaultPool.Put(chunks[i])
			}
		}()
	}
	refills := make([]subOp, len(need))
	for j, i := range need {
		cm := wire.ECMeta{
			ChunkIndex: uint8(i), K: uint8(e.k), M: uint8(e.m),
			TotalLen: win.TotalLen, Stripe: win.Stripe,
		}
		// The executor wraps each chunk in its payload as it issues the
		// frame.
		refills[j] = subOp{addr: cur[i], rawChunk: true, req: wire.BatchReq{
			Op: wire.OpSetChunk, Key: wire.ChunkKey(key, i), Value: chunks[i],
			TTLSeconds: win.TTL, Meta: cm,
		}}
		if v.Moved {
			// Compare = the stripe observed at the holder: an absent chunk
			// is an add (Meta.K>0 permits the insert), a stale one is
			// swapped out atomically, and anything that changed since the
			// probe wins.
			refills[j].req.Op, refills[j].req.Compare = wire.OpCompareSet, at[0][i]
		}
	}
	return b.settle(rings.View, v, refills, e.drains(key, places, at, win.Stripe))
}

// drains plans the stripe-conditional deletes of the chunks the
// draining placements still hold at positions that moved (at[s][i] !=
// 0 for s > 0), none newer than limit — a newer one is not the
// convergence's to remove. Each is conditional on the stripe observed
// there, so only the copy the probe accounted for goes: a write that
// lands after the probe changes the stripe and the delete misses,
// harmlessly.
func (e *ecStrategy) drains(key string, places [][]string, at [][]uint64, limit uint64) []subOp {
	var ops []subOp
	for s := 1; s < len(places); s++ {
		for i, stripe := range at[s] {
			if stripe != 0 && stripe <= limit {
				ops = append(ops, subOp{addr: places[s][i], req: wire.BatchReq{
					Op: wire.OpDelete, Key: wire.ChunkKey(key, i), Compare: stripe,
				}})
			}
		}
	}
	return ops
}

// verify for the hybrid policy: probe both representations. A small
// value must have its full, byte-identical replica set (a single live
// replica is NOT healthy; it is one failure away from loss, which is
// what the scrubber exists to catch); a large one its full consistent
// stripe. A key with BOTH forms is never healthy: one of them is a
// stale leftover from a cross-threshold overwrite whose purge did not
// complete, and repair must resolve it before the stale form can
// shadow the live one.
func (h *hybridStrategy) verify(b *batcher, key string) (bool, error) {
	ecOK, ecErr := h.ec.verify(b, key)
	repOK, repErr := h.rep.verify(b, key)
	ecGone := errors.Is(ecErr, ErrNotFound)
	repGone := errors.Is(repErr, ErrNotFound)
	switch {
	case ecGone && repGone:
		return false, ErrNotFound
	case ecGone:
		return repOK, repErr
	case repGone:
		return ecOK, ecErr
	case ecErr != nil:
		return false, ecErr
	case repErr != nil:
		return false, repErr
	default:
		return false, nil // dual representation: needs repair
	}
}

// converge for the hybrid policy: converge whichever representation
// exists, the replicated one first. A repair that finds both — a
// cross-threshold overwrite whose purge of the old form did not
// complete — lets the replicated form win, because the read path
// resolves it first: converging on it makes what reads already observe
// durable, while any other choice would flip the value reads return.
// The stale stripe is purged only after the replicated form converged.
// A stripe's absence says nothing of replicas out of reach, so it does
// not hide the replicated side's failure (the read path's rule too).
func (h *hybridStrategy) converge(b *batcher, key string) (RepairReport, error) {
	v, err := h.rep.converge(b, key)
	if err == nil {
		// A stale stripe surviving on an unreachable holder is an error,
		// so the scrubber retries next cycle.
		if err := h.ec.del(b, []string{key})[0].err; err != nil && !errors.Is(err, ErrNotFound) {
			return v, err
		}
		return v, nil
	}
	ev, eerr := h.ec.converge(b, key)
	if errors.Is(eerr, ErrNotFound) && !errors.Is(err, ErrNotFound) {
		return v, err
	}
	return ev, eerr
}

// sameMembers reports whether a and b, each duplicate-free, name the
// same server set, ignoring order (replica placement is a set: every
// member holds the same full copy).
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, s := range a {
		if !slices.Contains(b, s) {
			return false
		}
	}
	return true
}
