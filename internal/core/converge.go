package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
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
// (membership.View.Draining). Repair is converge, the one call per key:
// a healthy key costs its probe and no write.

// RepairReport describes what Repair did for one key.
type RepairReport struct {
	// Checked is the number of chunk/replica locations probed.
	Checked int
	// Missing is how many current locations lacked the authoritative
	// copy (absent, unreachable or stale) before repair — for a key that
	// did not move, less those a newer write reached first.
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
// below Missing (partial repair), not an error. A report with Missing 0
// and no error attests full redundancy: for an erasure-coded key, every
// current holder on one stripe whose parity matches its data.
//
// Every write it sends is conditional on what its own probe saw at that
// location: a refill replaces only the version the holder answered with
// (or adds where it answered none), and a delete removes only the
// version seen there. So a write that races past the probe — an
// overwrite, a CAS — is never clobbered and never deleted: the refill
// or delete answers Exists and the newer value stays. The rounds
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
	var report RepairReport
	r := c.retryKeys(false, func([]int) []result {
		var err error
		report, err = c.strat.converge(b, key)
		return []result{{err: err}}
	})[0]
	_, err := b.end(Item{}, r.err)
	return report, err
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
// unmoved key plans no drains, and a refill of it that lost to a newer
// write is not missing: that holder needs nothing more, and a key under
// live writes must not count unconverged on every pass whose probe
// catches a write in flight. A moved key's lost refill stays missing:
// reads stop consulting the draining rings once the list clears, so the
// list waits for a pass in which every refill of a moved key landed. A
// refill that failed is partial
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
		for i := range refills {
			if superseded(refills[i].fail()) {
				v.Missing--
			}
		}
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
		case superseded(e):
		case err == nil:
			err = e
		}
	}
	return n, size, err
}

// superseded reports whether a conditional write or delete failed
// because its location changed after the probe (Exists, NotFound).
func superseded(err error) bool {
	return errors.Is(err, wire.ErrExists) || errors.Is(err, wire.ErrNotFound)
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
// that copy is byte-identical to the authoritative one; version, the
// version a refill of source i must find there: the one it answered
// with, or none.
func (p *copies) holds(i int) bool {
	return p.ops[i].err == nil && p.ops[i].resp.Status == wire.StatusOK
}

func (p *copies) same(i int) bool {
	return p.holds(i) && bytes.Equal(p.ops[i].resp.Value, p.ops[p.first].resp.Value)
}

func (p *copies) version(i int) uint64 {
	if p.holds(i) {
		return p.ops[i].resp.Meta.Stripe
	}
	return wire.CompareAbsent
}

// converge for replication. The sources are the current holders, then
// the servers only a draining placement names; the first copy in that
// order is authoritative — the read path's order, so convergence makes
// durable what reads observe — and carries its version and remaining
// TTL into every refill so the reconverged replicas agree on the CAS
// token too.
//
// An unmoved key refills every current holder whose copy is absent,
// unreachable or diverged — only a rewrite reconverges two holders
// answering with different bytes; a moved key only the current holders
// that showed none, since a holder that has the key by then holds a
// concurrent overwrite. Either way a refill replaces only the version
// the holder answered with (CompareAbsent where it answered none), so a
// write that raced past the probe keeps its copy. The servers only a
// draining placement names are then drained, each conditional on the
// version it showed.
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
	var refills, drains []subOp
	for i, addr := range sources {
		switch {
		case i >= len(cur):
			// A server only a draining placement names that answered
			// not-found has nothing to drain; an unreachable one is still
			// asked, so its failure keeps the key unconverged.
			if p.ops[i].err != nil || p.holds(i) {
				drains = append(drains, subOp{addr: addr, req: wire.BatchReq{
					Op: wire.OpDelete, Key: key, Compare: cmp.Or(p.version(i), auth.Meta.Stripe),
				}})
			}
		case !v.Moved && !p.same(i), v.Moved && !p.holds(i):
			refills = append(refills, subOp{addr: addr, req: wire.BatchReq{
				Op: wire.OpCompareSet, Key: key, Value: auth.Value, TTLSeconds: auth.TTLSeconds,
				Compare: p.version(i), Meta: wire.ECMeta{Stripe: auth.Meta.Stripe},
			}})
		}
	}
	return b.settle(rings.View, v, refills, drains)
}

// chunkProbe is what one convergence probe of an erasure-coded key saw:
// the chunks grouped by stripe (aliasing response bodies the batcher
// holds until release) and, per location, at[s][i] — the stripe of the
// valid chunk position i's holder in placement s answered with — and
// seen[s][i] — the item version it answered with, a chunk whose payload
// failed its check included. Both are 0 for a location absent,
// unreachable or not probed; probed counts the locations asked.
type chunkProbe struct {
	gather
	at, seen [][]uint64
	probed   int
}

// probe fetches chunk i of key from position i's holder in every source
// placement (places[0] the current one) in one round, asking a holder
// an earlier placement names for the same position only once; a server
// holding two chunk indices gets them in one frame.
func (e *ecStrategy) probe(b *batcher, key string, epoch uint64, places [][]string) chunkProbe {
	n := e.k + e.m
	p := chunkProbe{at: make([][]uint64, len(places)), seen: make([][]uint64, len(places))}
	p.ChunkCollector = wire.NewChunkCollector(e.k, n)
	stripes := make([]uint64, 2*len(places)*n)
	for s := range places {
		p.at[s] = stripes[2*s*n : (2*s+1)*n]
		p.seen[s] = stripes[(2*s+1)*n : (2*s+2)*n]
	}
	ops := make([]subOp, 0, len(places)*n)
	var keyBuf [8]string
	keys := wire.AppendChunkKeys(keyBuf[:0], key, 0, n)
	eachSource(places, 0, func(s, i int) {
		// key is the location's placement and position.
		ops = append(ops, subOp{addr: places[s][i], key: s*n + i, req: wire.BatchReq{
			Op: wire.OpGetChunk, Key: keys[i],
		}})
	})
	b.send(ops, epoch)
	for j := range ops {
		op := &ops[j]
		s, i := op.key/n, op.key%n
		p.at[s][i] = p.classify(op)
		if op.err == nil && op.resp.Status == wire.StatusOK {
			p.seen[s][i] = op.resp.Meta.Stripe
		}
	}
	p.probed = len(ops)
	return p
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

// converge for erasure coding: collect the key's chunks from every
// source placement, take the winning stripe, check its parity when it
// sits whole on the current placement, reconstruct what no source holds
// or the check refused, write each chunk its current holder lacks, then
// — for a moved key — drain the draining-placement holders whose chunk
// index moved.
func (e *ecStrategy) converge(b *batcher, key string) (RepairReport, error) {
	n := e.k + e.m
	rings := e.c.view.Rings()
	places := sourcePlacements(rings, key, n)
	if places == nil {
		return RepairReport{}, ErrUnavailable
	}
	cur := places[0]
	defer b.release()
	p := e.probe(b, key, rings.View.Epoch, places)
	v := RepairReport{Checked: p.probed, Moved: len(places) > 1}
	win := p.Best()
	newest, elsewhere := slices.Max(p.at[0]), uint64(0)
	for _, held := range p.at[1:] {
		elsewhere = max(elsewhere, slices.Max(held))
	}
	switch {
	case p.wrongEpoch:
		// Stale placement snapshot: bail out so the epoch retry
		// re-resolves before any write lands on the wrong ring.
		return v, wire.ErrWrongEpoch
	case win != nil:
	case p.Seen() == 0 && p.notFound == p.probed:
		return v, ErrNotFound
	case p.reachable < p.probed:
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
		drains := e.drains(key, places, p.seen, 1, newest)
		b.send(drains, rings.View.Epoch)
		v.Dropped, _, _ = landed(drains)
		return v, nil
	default:
		// Every chunk holder of every source is alive and answered, yet no
		// stripe retains K chunks: the value is irrecoverably lost (more
		// than M holders crashed empty before a repair could run). Leaving
		// the orphan chunks behind would make every future read and every
		// scrub cycle fail on a value that cannot come back, so treat
		// this as authoritative loss: purge the remnants the probe saw and
		// report a clean miss.
		if err := e.purge(b, key, places, p.seen, rings.View.Epoch); err != nil {
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
	for i, held := range p.at[0] {
		if held != win.Stripe && (!v.Moved || held < win.Stripe) {
			need = append(need, i)
		}
		if chunks[i] == nil {
			lost = append(lost, i)
		}
	}
	if !slices.ContainsFunc(p.at[0], func(held uint64) bool { return held != win.Stripe }) {
		// The stripe sits whole on the current placement: its parity must
		// match its data. A read decodes the data chunks first, so the
		// data wins — convergence makes durable what reads observe — and
		// a mismatch rebuilds the M parity chunks from it.
		start := time.Now()
		ok, err := e.code.Verify(chunks)
		b.code += time.Since(start)
		if err != nil {
			return v, err
		}
		for i := e.k; !ok && i < n; i++ {
			need, lost = append(need, i), append(lost, i)
			chunks[i] = nil
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
	// Each refill replaces only the version the probe saw at its holder
	// (an absent chunk is an add: Meta.K > 0 permits the insert), so
	// anything written there since the probe wins.
	refills := make([]subOp, len(need))
	for j, i := range need {
		cm := wire.ECMeta{
			ChunkIndex: uint8(i), K: uint8(e.k), M: uint8(e.m),
			TotalLen: win.TotalLen, Stripe: win.Stripe,
		}
		// The executor wraps each chunk in its payload as it issues the
		// frame.
		refills[j] = subOp{addr: cur[i], rawChunk: true, req: wire.BatchReq{
			Op: wire.OpCompareSet, Key: wire.ChunkKey(key, i), Value: chunks[i],
			TTLSeconds: win.TTL, Compare: p.seen[0][i], Meta: cm,
		}}
	}
	return b.settle(rings.View, v, refills, e.drains(key, places, p.seen, 1, win.Stripe))
}

// drains plans the stripe-conditional deletes of the chunks placements
// from and later hold, none newer than limit — a newer one is not the
// convergence's to remove — at the locations the probe asked (seen[s][i]
// != 0: a position a later placement did not move was asked once, at
// its first placement). Each is conditional on the version seen there,
// so only the copy the probe accounted for goes: a write that lands
// after the probe changes the version and the delete misses, harmlessly.
func (e *ecStrategy) drains(key string, places [][]string, seen [][]uint64, from int, limit uint64) []subOp {
	var ops []subOp
	for s := from; s < len(places); s++ {
		for i, stripe := range seen[s] {
			if stripe != 0 && stripe <= limit {
				ops = append(ops, subOp{addr: places[s][i], req: wire.BatchReq{
					Op: wire.OpDelete, Key: wire.ChunkKey(key, i), Compare: stripe,
				}})
			}
		}
	}
	return ops
}

// purge deletes every chunk of key the probe saw at any source
// placement, each conditional on the version seen there, and returns the
// first failure that is not a lost race.
func (e *ecStrategy) purge(b *batcher, key string, places [][]string, seen [][]uint64, epoch uint64) error {
	ops := e.drains(key, places, seen, 0, math.MaxUint64)
	b.send(ops, epoch)
	_, _, err := landed(ops)
	return err
}

// converge for the hybrid policy: converge whichever representation
// exists, the replicated one first. A repair that finds both — a
// cross-threshold overwrite whose purge of the old form did not
// complete — lets the replicated form win, because the read path
// resolves it first: converging on it makes what reads already observe
// durable, while any other choice would flip the value reads return.
// The stale stripe is purged only after the replicated form converged,
// chunk by chunk against the stripe a probe saw, so a healthy small key
// costs one probe of each form and no write. A stripe's absence says
// nothing of replicas out of reach, so it does not hide the replicated
// side's failure (the read path's rule too).
func (h *hybridStrategy) converge(b *batcher, key string) (RepairReport, error) {
	v, err := h.rep.converge(b, key)
	if err == nil {
		return v, h.purgeStripe(b, key)
	}
	ev, eerr := h.ec.converge(b, key)
	if errors.Is(eerr, ErrNotFound) && !errors.Is(err, ErrNotFound) {
		return v, err
	}
	return ev, eerr
}

// purgeStripe removes the stale stripe of a key whose replicated form
// converged. K or more holders out of reach may still hold a decodable
// stripe between them, which is an error, so the scrubber retries next
// cycle; fewer cannot.
func (h *hybridStrategy) purgeStripe(b *batcher, key string) error {
	e := h.ec
	rings := e.c.view.Rings()
	places := sourcePlacements(rings, key, e.k+e.m)
	if places == nil {
		return ErrUnavailable
	}
	defer b.release()
	p := e.probe(b, key, rings.View.Epoch, places)
	switch {
	case p.wrongEpoch:
		return wire.ErrWrongEpoch
	case p.probed-p.reachable >= e.k:
		return fmt.Errorf("%w: %d chunk holders of %q unreached", ErrUnavailable, p.probed-p.reachable, key)
	}
	return e.purge(b, key, places, p.seen, rings.View.Epoch)
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
