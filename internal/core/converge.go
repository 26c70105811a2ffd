package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/hashring"
	"ecstore/internal/wire"
)

// Convergence is the background half of every resilience mode: bring
// one key's copies or chunks to where the current ring wants them, in
// full. Each mode writes it once — one probe round over a list of
// source placements, pick the authoritative copy, reconstruct, one
// round of refills, one round of drains — through the same batcher the
// foreground uses. Repair is converge with the current placement as
// the only source (no drains), MigrateKey adds an older ring's
// placement, Verify is the probe plus an attestation and no writes.

// RepairReport describes what Repair did for one key.
type RepairReport struct {
	// Checked is the number of chunk/replica locations probed.
	Checked int
	// Missing is how many were absent or unreachable before repair.
	Missing int
	// Rewritten is how many were restored.
	Rewritten int
	// BytesMoved is the payload volume of the rewrites that landed —
	// the background daemon (internal/scrub) sums it into its reports.
	BytesMoved int64
}

// Healthy reports whether the key had full redundancy already.
func (r RepairReport) Healthy() bool { return r.Missing == 0 }

// String renders the report on one line.
func (r RepairReport) String() string {
	return fmt.Sprintf("checked=%d missing=%d rewritten=%d bytes=%d", r.Checked, r.Missing, r.Rewritten, r.BytesMoved)
}

// MigrateReport describes what MigrateKey did for one key.
type MigrateReport struct {
	// Moved reports whether any data actually changed location.
	Moved bool
	// Refilled is how many replica/chunk locations gained a copy.
	Refilled int
	// Dropped is how many stale locations were drained.
	Dropped int
	// BytesMoved is the payload volume of the refills that landed.
	BytesMoved int64
}

// String renders the report on one line.
func (r MigrateReport) String() string {
	return fmt.Sprintf("refilled=%d dropped=%d bytes=%d", r.Refilled, r.Dropped, r.BytesMoved)
}

// convergence is what one converge call found and did; the two public
// reports are views of it.
type convergence struct {
	checked  int   // locations probed
	missing  int   // current holders found without the authoritative copy
	refilled int   // of those, the writes that landed
	dropped  int   // old-placement copies drained
	bytes    int64 // payload volume of the refills that landed
}

// Repair restores full redundancy for key: it probes every chunk or
// replica location, reconstructs lost chunks from the survivors (or
// re-reads the value from a live replica), and rewrites whatever is
// missing. It addresses the paper's future-work item of recovering
// redundancy after node failures — a crashed-and-restarted server
// comes back empty, leaving stripes degraded until repaired. A holder
// still down stays unrewritten: the report then shows Rewritten below
// Missing (partial repair), not an error.
//
// Repair returns ErrUnavailable when too few chunks survive to
// reconstruct, and ErrNotFound when no trace of the key exists.
func (c *Client) Repair(key string) (RepairReport, error) {
	v, err := c.converge("repair", key, nil)
	return RepairReport{Checked: v.checked, Missing: v.missing, Rewritten: v.refilled, BytesMoved: v.bytes}, err
}

// IRepair is the non-blocking form of Repair; the Future's value is
// nil and its error is the repair error.
func (c *Client) IRepair(key string) *Future {
	return c.submit(func() (Item, error) {
		_, err := c.Repair(key)
		return Item{}, err
	})
}

// MigrateKey moves one key's data from the placement oldRing assigned
// it to the placement the client's CURRENT ring assigns it: it locates
// the value (old holders first — that is where the data lives), refills
// the new holders that lack it, and drains the old holders that left
// the placement. Every write is conditional (add-if-absent or
// version-gated), every drain is version/stripe-conditional and none is
// sent until every refill has landed, so a key being overwritten
// concurrently is never clobbered and a racing write is never deleted —
// the migration loses the race cleanly and the new write, already
// routed by the current ring, needs no migration.
//
// The rounds address servers of both rings explicitly, departing
// members included, and carry the epoch of the view the current
// placement came from: every member of either ring has been pushed
// that view, and a caller that is itself behind is told so
// (WrongEpoch), adopts the newer view and re-resolves like any other
// operation.
//
// ErrNotFound means the key vanished (deleted or expired) between scan
// and migration — nothing to move.
func (c *Client) MigrateKey(key string, oldRing *hashring.Ring) (MigrateReport, error) {
	v, err := c.converge("migrate", key, oldRing)
	return MigrateReport{Moved: v.refilled+v.dropped > 0, Refilled: v.refilled, Dropped: v.dropped, BytesMoved: v.bytes}, err
}

// converge runs the strategy's convergence of key under op's ledger.
// The strategies bail out with wire.ErrWrongEpoch before any write
// lands on a stale ring; adopt the newer view and re-resolve, the same
// transparent retry every data-path operation gets.
func (c *Client) converge(op, key string, old *hashring.Ring) (convergence, error) {
	b := c.begin(op)
	v, err := epochRetry(c, func() (convergence, error) { return c.strat.converge(b, key, old) })
	_, err = b.end(Item{}, err)
	return v, err
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
// is the caller's); every holder answering not-found is ErrNotFound.
func (c *Client) Verify(key string) (bool, error) {
	b := c.begin("verify")
	ok, err := epochRetry(c, func() (bool, error) { return c.strat.verify(b, key) })
	_, err = b.end(Item{}, err)
	return ok, err
}

// settle sends a convergence's planned writes: the refills as one
// round, then — for a migration, and only when every refill landed or
// lost to something newer — the drains as another, so an old copy is
// never removed while the holder meant to replace it is still empty. A
// repair plans no drains and reports a refill that failed as partial
// repair (refilled below missing), not as an error: the holder is
// still down, and the next scrub cycle retries it.
func (b *batcher) settle(epoch uint64, v convergence, refills, drains []subOp, migrating bool) (convergence, error) {
	v.missing = len(refills)
	b.send(refills, epoch)
	var err error
	v.refilled, v.bytes, err = landed(refills)
	b.release() // the probe's leases fed the refills; nothing aliases them now
	if !migrating {
		return v, nil
	}
	if err != nil {
		return v, err
	}
	b.send(drains, epoch)
	v.dropped, _, err = landed(drains)
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
	placement, epoch := r.c.placement(key, r.replicas)
	cur := distinct(placement)
	if len(cur) == 0 {
		return false, ErrUnavailable
	}
	defer b.release()
	p := r.probe(b, key, epoch, cur)
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

// converge for replication. The sources are the current placement for
// a repair, the old ring's for a migration: that is where the data
// lives, and the first copy in source order is authoritative, carrying
// its version and remaining TTL into every refill so the reconverged
// replicas agree on the CAS token too.
//
// A repair rewrites, unconditionally, every holder whose copy is
// absent, unreachable or diverged — only a rewrite reconverges two
// holders answering with different bytes. A migration adds the value
// (CompareAbsent) to the current holders that showed none, and to those
// the old ring did not name, unprobed: the add is its own probe, and a
// holder that has the key — from an earlier pass or a concurrent
// overwrite — answers Exists and keeps what it has. It then drains the
// holders only the old ring named, conditional on the version that was
// copied, so a write that raced past the refill keeps its differently-
// versioned copy.
func (r *repStrategy) converge(b *batcher, key string, old *hashring.Ring) (convergence, error) {
	ring, epoch := r.c.placementSnapshot()
	cur := distinct(placementOn(ring, key, r.replicas))
	if len(cur) == 0 {
		return convergence{}, ErrUnavailable
	}
	sources := cur
	if old != nil {
		if sources = distinct(placementOn(old, key, r.replicas)); sameMembers(sources, cur) {
			return convergence{}, nil
		}
	}
	defer b.release()
	p := r.probe(b, key, epoch, sources)
	v := convergence{checked: len(sources)}
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
	if old != nil {
		refill.Op, refill.Compare = wire.OpCompareSet, wire.CompareAbsent
	}
	var refills, drains []subOp
	for i, addr := range sources {
		switch {
		case old != nil && !slices.Contains(cur, addr):
			// A holder that left the placement and answered not-found has
			// nothing to drain; an unreachable one is still asked, so its
			// failure keeps the key on the migration's list.
			if p.ops[i].err != nil || p.holds(i) {
				drains = append(drains, subOp{addr: addr, req: wire.BatchReq{
					Op: wire.OpDelete, Key: key, Compare: auth.Meta.Stripe,
				}})
			}
		case old == nil && !p.same(i), old != nil && !p.holds(i):
			refills = append(refills, subOp{addr: addr, req: refill})
		}
	}
	for _, addr := range cur {
		if !slices.Contains(sources, addr) {
			refills = append(refills, subOp{addr: addr, req: refill})
		}
	}
	return b.settle(epoch, v, refills, drains, old != nil)
}

// probe fetches chunk i of key from position i's holder in the current
// placement and — where an old placement names a different holder for
// it — from that one too, all in one round; a server holding two chunk
// indices gets them in one frame. It returns the chunks grouped by
// stripe (aliasing response bodies the batcher holds until release),
// the stripe observed at each location (at[0] current, at[1] old; 0 =
// absent, unreadable or not probed) and the number of locations probed.
func (e *ecStrategy) probe(b *batcher, key string, epoch uint64, cur, prev []string) (st gather, at [2][]uint64, probed int) {
	n := e.k + e.m
	st.ChunkCollector = wire.NewChunkCollector(e.k, n)
	stripes := make([]uint64, 2*n)
	at = [2][]uint64{stripes[:n], stripes[n:]}
	ops := make([]subOp, 0, 2*n)
	var keyBuf [8]string
	keys := wire.AppendChunkKeys(keyBuf[:0], key, 0, n)
	for s, placement := range [2][]string{cur, prev} {
		for i, addr := range placement {
			if s == 1 && addr == cur[i] {
				continue // chunk i did not move: one holder, one probe
			}
			// key is the location's slot in stripes.
			ops = append(ops, subOp{addr: addr, key: s*n + i, req: wire.BatchReq{
				Op: wire.OpGetChunk, Key: keys[i],
			}})
		}
	}
	b.send(ops, epoch)
	for j := range ops {
		stripes[ops[j].key] = st.classify(&ops[j])
	}
	return st, at, len(ops)
}

// verify for erasure coding: one stripe on all K+M locations, and its
// parity consistent with its data. A location that is missing,
// unreachable, corrupt or on another stripe (mixed writes) fails the
// attestation without an error — it needs repair.
func (e *ecStrategy) verify(b *batcher, key string) (bool, error) {
	n := e.k + e.m
	cur, epoch := e.c.placement(key, n)
	if cur == nil {
		return false, ErrUnavailable
	}
	defer b.release()
	st, at, _ := e.probe(b, key, epoch, cur, nil)
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

// converge for erasure coding: collect the key's chunks from the
// current placement — and the old ring's, when migrating — take the
// winning stripe, reconstruct what no source holds, write each chunk
// its current holder lacks, then drain the old holders whose chunk
// index moved.
func (e *ecStrategy) converge(b *batcher, key string, old *hashring.Ring) (convergence, error) {
	n := e.k + e.m
	ring, epoch := e.c.placementSnapshot()
	cur := placementOn(ring, key, n)
	if cur == nil {
		return convergence{}, ErrUnavailable
	}
	var prev []string
	if old != nil {
		// Chunk placement is positional: chunk i lives at placement[i].
		if prev = placementOn(old, key, n); slices.Equal(prev, cur) {
			return convergence{}, nil
		}
	}
	defer b.release()
	st, at, probed := e.probe(b, key, epoch, cur, prev)
	v := convergence{checked: probed}
	win := st.Best()
	newest := slices.Max(at[0])
	switch {
	case st.wrongEpoch:
		// Stale placement snapshot: bail out so the epoch retry
		// re-resolves before any write lands on the wrong ring.
		return v, wire.ErrWrongEpoch
	case win != nil:
	case st.Seen() == 0 && st.notFound == probed:
		return v, ErrNotFound
	case st.reachable < probed, old != nil && newest <= slices.Max(at[1]):
		return v, fmt.Errorf("%w: no stripe of %q has %d chunks", ErrUnavailable, key, e.k)
	case old == nil:
		// Every chunk holder is alive and answered, yet no stripe
		// retains K chunks: the value is irrecoverably lost (more than M
		// holders crashed empty before a repair could run). Leaving the
		// orphan chunks behind would make every future read and every
		// scrub cycle fail on a value that cannot come back, so treat
		// this as authoritative loss: purge the remnants and report a
		// clean miss.
		if err := e.del(b, []string{key})[0].err; err != nil && !errors.Is(err, ErrNotFound) {
			return v, err
		}
		return v, ErrNotFound
	default:
		// A live overwrite smears the (non-atomic) probe across several
		// stripes, so no single stripe may show K chunks even though the
		// key is perfectly healthy. Every probe answered and the newest
		// chunk observed sits at the NEW placement, strictly newer than
		// anything only the old ring holds: the key is owned by an
		// epoch-current writer, its stripes are already routed by the
		// current ring and there is nothing to refill. The old-placement
		// leftovers can go right now — all are strictly older than the
		// supersession winner, so the stripe-conditional drain only
		// removes copies no reader can ever need. A leftover it misses
		// (gone already, unreachable) waits for a later pass and is never
		// worth failing the migration over.
		drains := e.drains(key, prev, at[1], newest)
		b.send(drains, epoch)
		v.dropped, _, _ = landed(drains)
		return v, nil
	}

	// A repair rewrites whatever does not hold the winning stripe's
	// chunk — lost, corrupt, or from a superseded or torn write. A
	// migration keeps what is at least as new: stripe IDs are
	// time-ordered, and a newer one is a concurrent overwrite the current
	// ring already routed correctly.
	var need, lost []int
	chunks := win.Chunks()
	for i, held := range at[0] {
		if held != win.Stripe && (old == nil || held < win.Stripe) {
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
		if old != nil {
			// Compare = the stripe observed at the holder: an absent chunk
			// is an add (Meta.K>0 permits the insert), a stale one is
			// swapped out atomically, and anything that changed since the
			// probe wins.
			refills[j].req.Op, refills[j].req.Compare = wire.OpCompareSet, at[0][i]
		}
	}
	return b.settle(epoch, v, refills, e.drains(key, prev, at[1], win.Stripe), old != nil)
}

// drains plans the stripe-conditional deletes of the chunks the old
// placement still holds at positions that moved (held[i] != 0), none
// newer than limit — a newer one is not the migration's to remove.
// Each is conditional on the stripe observed there, so only the copy
// the probe accounted for goes: a write that lands after the probe
// changes the stripe and the delete misses, harmlessly.
func (e *ecStrategy) drains(key string, prev []string, held []uint64, limit uint64) []subOp {
	var ops []subOp
	for i, stripe := range held {
		if stripe != 0 && stripe <= limit {
			ops = append(ops, subOp{addr: prev[i], req: wire.BatchReq{
				Op: wire.OpDelete, Key: wire.ChunkKey(key, i), Meta: wire.ECMeta{Stripe: stripe},
			}})
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
// A migration moves the one form the key lives in (modulo those
// interrupted overwrites, which scrub resolves) — and a replica set the
// ring change left in place, which the replicated side reports without
// probing, says nothing of a stripe's K+M holders: the erasure-coded
// side still gets its turn.
func (h *hybridStrategy) converge(b *batcher, key string, old *hashring.Ring) (convergence, error) {
	v, err := h.rep.converge(b, key, old)
	inPlace := old != nil && err == nil && v.checked == 0
	switch {
	case err == nil && old == nil:
		// A stale stripe surviving on an unreachable holder is an error,
		// so the scrubber retries next cycle.
		if err := h.ec.del(b, []string{key})[0].err; err != nil && !errors.Is(err, ErrNotFound) {
			return v, err
		}
		return v, nil
	case err == nil && !inPlace, old != nil && err != nil && !errors.Is(err, ErrNotFound):
		return v, err
	}
	v, err = h.ec.converge(b, key, old)
	if inPlace && errors.Is(err, ErrNotFound) {
		return v, nil // no stripe: the key is replicated, where it belongs, or gone
	}
	return v, err
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
