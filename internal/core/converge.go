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
// keys' copies or chunks to where the current ring wants them, in full.
// Each mode writes it once, for a page of keys by position like
// get/set/del — one probe round over every key's source placements,
// pick each key's authoritative copy, reconstruct, one round of
// refills, one round of drains — through the same batcher the
// foreground uses, so a page costs one frame per server per round. The
// sources come from one view snapshot: the current placement, plus
// every draining ring's placement that differs from it
// (membership.View.Draining). RepairEach is converge over a page and
// Repair over one key: a healthy key costs its share of the probe round
// and no write.

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
// reconstruct, and ErrNotFound when no trace of the key exists. It is
// RepairEach of one key.
func (c *Client) Repair(key string) (report RepairReport, err error) {
	c.RepairEach([]string{key}, func(_ string, r RepairReport, e error) { report, err = r, e })
	return report, err
}

// RepairEach is Repair for every distinct key of keys, as one page: the
// keys share every round — one probe round over all their source
// placements, one refill round, one drain round — so a page costs one
// frame per server per round, not one per key. The call takes one
// window slot and counts as one repair operation. Then it calls each
// once per distinct key, in the order keys lists them, on the calling
// goroutine, with the key's report and the error Repair would return
// for it (ErrClosed after Close).
func (c *Client) RepairEach(keys []string, each func(key string, report RepairReport, err error)) {
	keys = readKeys(keys)
	if len(keys) == 0 {
		return
	}
	reports := make([]RepairReport, len(keys))
	var res []result
	_, closed := c.run(func() (Item, error) {
		b := c.begin("repair")
		// The strategies bail out with wire.ErrWrongEpoch before any write
		// lands on a stale ring; adopt the newer view and re-resolve those
		// keys, the same transparent retry every data-path operation gets.
		res = c.retryKeys(false, func(idx []int) []result {
			if idx == nil {
				return c.strat.converge(b, keys, reports)
			}
			redo := make([]RepairReport, len(idx))
			out := c.strat.converge(b, pick(keys, idx), redo)
			for j, i := range idx {
				reports[i] = redo[j]
			}
			return out
		})
		b.end(Item{}, firstFailure("repair", keys, res))
		return Item{}, nil // the keys' errors are res's; run's is ErrClosed
	})
	for i, key := range keys {
		err := closed
		if err == nil {
			err = res[i].err
		}
		each(key, reports[i], err)
	}
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

// page is the writes one converge call plans for its keys, each sub-op
// carrying its key's position. settle sends them.
type page struct {
	refills []subOp
	// drains are a moved key's deletes at the locations only a draining
	// placement names; they wait for its refills.
	drains []subOp
	// leftovers are the deletes of what a live overwrite left behind at
	// the draining placements; a failed one waits for a later pass.
	leftovers []subOp
	// purges delete every chunk of a stripe no read may return; a failed
	// one is its key's verdict.
	purges []subOp
}

// settle sends a page's planned writes: the refills as one round, then
// one round carrying the drains of the moved keys whose refills all
// landed or lost to something newer — so a copy is never removed while
// the holder meant to replace it is still empty — with the leftovers
// and purges beside them. An unmoved key plans no drains, and a refill
// of it that lost to a newer write is not missing: that holder needs
// nothing more, and a key under live writes must not count unconverged
// on every pass whose probe catches a write in flight. A moved key's
// lost refill stays missing: reads stop consulting the draining rings
// once the list clears, so the list waits for a pass in which every
// refill of a moved key landed. A refill that failed is partial repair
// (refilled below missing), not an error, for an unmoved key: the
// holder is still down, and the next scrub cycle retries it. A drain
// that cannot reach a server view no longer names is not a failure
// either: the refills landed, and a removed server that crashed would
// otherwise hold the key unconverged, and the view draining, forever.
func (b *batcher) settle(view membership.View, pg *page, reports []RepairReport, out []result) {
	b.send(pg.refills, view.Epoch)
	for j := range pg.refills {
		op := &pg.refills[j]
		v := &reports[op.key]
		v.Missing++
		switch err := op.fail(); {
		case err == nil:
			v.Rewritten++
			v.BytesMoved += int64(len(op.req.Value))
		case superseded(err):
			if !v.Moved {
				v.Missing--
			}
		case v.Moved && out[op.key].err == nil:
			out[op.key].err = err
		}
	}
	b.release() // the probe's leases fed the refills; nothing aliases them now
	round := slices.DeleteFunc(pg.drains, func(op subOp) bool { return out[op.key].err != nil })
	drains, leftovers := len(round), len(round)+len(pg.leftovers)
	round = append(append(round, pg.leftovers...), pg.purges...)
	b.send(round, view.Epoch)
	for j := range round {
		op := &round[j]
		switch err := op.fail(); {
		case err == nil:
			if j < leftovers {
				reports[op.key].Dropped++
			}
		case superseded(err), j >= drains && j < leftovers:
		case j >= leftovers:
			out[op.key].err = err
		case view.Contains(op.addr) && out[op.key].err == nil:
			out[op.key].err = err
		}
	}
	b.release()
}

// superseded reports whether a conditional write or delete failed
// because its location changed after the probe (Exists, NotFound):
// what it holds now is newer (a refill leaves it) or is not the copy
// that was accounted for (a drain leaves it), and that is convergence,
// not failure.
func superseded(err error) bool {
	return errors.Is(err, wire.ErrExists) || errors.Is(err, wire.ErrNotFound)
}

// copies is one key's share of a replicated probe round: its whole-value
// reads from its source holders, by source position, whose response
// bodies stay leased on the batcher until release.
type copies struct {
	ops []subOp
	// first is the authoritative copy: the first source in order that
	// answered with one (-1: none), matching the read path, so
	// convergence makes durable exactly what reads observe.
	first      int
	notFound   int  // sources that answered an authoritative miss
	wrongEpoch bool // a source rejected the placement's epoch
}

// classifyCopies classifies each answer of one key's probe once: copy,
// not-found, epoch rejection, or unreachable (anything else).
func classifyCopies(ops []subOp) copies {
	p := copies{ops: ops, first: -1}
	for i := range ops {
		switch op := &ops[i]; {
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

// converge for replication. Each key's sources are its current holders,
// then the servers only a draining placement names, all probed in one
// round; the first copy in that order is authoritative — the read
// path's order, so convergence makes durable what reads observe — and
// carries its version and remaining TTL into every refill so the
// reconverged replicas agree on the CAS token too.
func (r *repStrategy) converge(b *batcher, keys []string, reports []RepairReport) []result {
	out := make([]result, len(keys))
	rings := r.c.view.Rings()
	current := make([]int, len(keys)) // how many of a key's sources are current holders
	var ops []subOp
	for i, key := range keys {
		cur, others, moved := r.holders(rings, key)
		if len(cur) == 0 {
			out[i].err = ErrUnavailable
			continue
		}
		reports[i] = RepairReport{Checked: len(cur) + len(others), Moved: moved}
		current[i] = len(cur)
		for _, addr := range append(slices.Clip(cur), others...) {
			ops = append(ops, subOp{addr: addr, key: i, req: wire.BatchReq{Op: wire.OpGet, Key: key}})
		}
	}
	b.send(ops, rings.View.Epoch)
	defer b.release()
	var pg page
	for lo := 0; lo < len(ops); {
		i := ops[lo].key
		hi := lo + reports[i].Checked
		out[i].err = r.plan(&pg, i, keys[i], classifyCopies(ops[lo:hi]), current[i], reports[i].Moved)
		lo = hi
	}
	b.settle(rings.View, &pg, reports, out)
	return out
}

// plan decides key i's writes from its probe p, whose first cur sources
// are the current holders. An unmoved key refills every current holder
// whose copy is absent, unreachable or diverged — only a rewrite
// reconverges two holders answering with different bytes; a moved key
// only the current holders that showed none, since a holder that has
// the key by then holds a concurrent overwrite. Either way a refill
// replaces only the version the holder answered with (CompareAbsent
// where it answered none), so a write that raced past the probe keeps
// its copy. The servers only a draining placement names are then
// drained, each conditional on the version it showed.
func (r *repStrategy) plan(pg *page, i int, key string, p copies, cur int, moved bool) error {
	switch {
	case p.wrongEpoch:
		// Stale placement snapshot: let the epoch retry refresh the view
		// and re-resolve, rather than writing against the wrong ring.
		return wire.ErrWrongEpoch
	case p.first >= 0:
	case p.notFound == len(p.ops):
		// Every location is live and authoritatively empty.
		return ErrNotFound
	default:
		return fmt.Errorf("%w: no reachable copy of %q", ErrUnavailable, key)
	}
	auth := &p.ops[p.first].resp
	for j := range p.ops {
		addr := p.ops[j].addr
		switch {
		case j >= cur:
			// A server only a draining placement names that answered
			// not-found has nothing to drain; an unreachable one is still
			// asked, so its failure keeps the key unconverged.
			if p.ops[j].err != nil || p.holds(j) {
				pg.drains = append(pg.drains, subOp{addr: addr, key: i, req: wire.BatchReq{
					Op: wire.OpDelete, Key: key, Compare: cmp.Or(p.version(j), auth.Meta.Stripe),
				}})
			}
		case !moved && !p.same(j), moved && !p.holds(j):
			pg.refills = append(pg.refills, subOp{addr: addr, key: i, req: wire.BatchReq{
				Op: wire.OpCompareSet, Key: key, Value: auth.Value, TTLSeconds: auth.TTLSeconds,
				Compare: p.version(j), Meta: wire.ECMeta{Stripe: auth.Meta.Stripe},
			}})
		}
	}
	return nil
}

// chunkProbe is what one convergence probe of an erasure-coded key saw:
// its source placements (places[0] the current one), the chunks grouped
// by stripe (aliasing response bodies the batcher holds until release)
// and, per location, at[s][i] — the stripe of the valid chunk position
// i's holder in placement s answered with — and seen[s][i] — the item
// version it answered with, a chunk whose payload failed its check
// included. Both are 0 for a location absent, unreachable or not
// probed; probed counts the locations asked.
type chunkProbe struct {
	gather
	places   [][]string
	at, seen [][]uint64
	probed   int
}

// probe fetches chunk i of every key from position i's holder in each
// of the key's source placements, all in one round, asking a holder an
// earlier placement names for the same position only once; a server
// gets every chunk it is asked for in one frame. A key with no
// placement is answered unavailable in out.
func (e *ecStrategy) probe(b *batcher, rings *membership.Rings, keys []string, out []result) []chunkProbe {
	n := e.k + e.m
	probes := make([]chunkProbe, len(keys))
	var ops []subOp
	var locs []int // ops[j]'s location: placement s, position i as s*n + i
	for k, key := range keys {
		p := &probes[k]
		if p.places = sourcePlacements(rings, key, n); p.places == nil {
			out[k].err = ErrUnavailable
			continue
		}
		p.ChunkCollector = wire.NewChunkCollector(e.k, n)
		stripes := make([]uint64, 2*len(p.places)*n)
		p.at, p.seen = make([][]uint64, len(p.places)), make([][]uint64, len(p.places))
		for s := range p.places {
			p.at[s] = stripes[2*s*n : (2*s+1)*n]
			p.seen[s] = stripes[(2*s+1)*n : (2*s+2)*n]
		}
		eachSource(p.places, 0, func(s, i int) {
			ops = append(ops, subOp{addr: p.places[s][i], key: k, req: wire.BatchReq{
				Op: wire.OpGetChunk, Key: key, Chunk: wire.ChunkOf(i),
			}})
			locs = append(locs, s*n+i)
			p.probed++
		})
	}
	b.send(ops, rings.View.Epoch)
	for j := range ops {
		op := &ops[j]
		p := &probes[op.key]
		s, i := locs[j]/n, locs[j]%n
		p.at[s][i] = p.classify(op)
		if op.err == nil && op.resp.Status == wire.StatusOK {
			p.seen[s][i] = op.resp.Meta.Stripe
		}
	}
	return probes
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

// converge for erasure coding: collect every key's chunks from every
// source placement, take each key's winning stripe, check its parity
// when it sits whole on the current placement, reconstruct what no
// source holds or the check refused, write each chunk its current holder
// lacks, then — for a moved key — drain the draining-placement holders
// whose chunk index moved.
func (e *ecStrategy) converge(b *batcher, keys []string, reports []RepairReport) []result {
	return e.convergeOrPurge(b, keys, nil, reports)
}

// convergeOrPurge is converge for the keys not marked in stale; a key
// stale marks (stale may be nil) has a converged replicated form
// (hybrid), and its stripe, whatever the probe finds of it, is purged.
func (e *ecStrategy) convergeOrPurge(b *batcher, keys []string, stale []bool, reports []RepairReport) []result {
	out := make([]result, len(keys))
	rings := e.c.view.Rings()
	probes := e.probe(b, rings, keys, out)
	defer b.release()
	var pg page
	var rebuilt [][]byte // pooled chunks Reconstruct made; the probe's held ones are network-owned
	for i, key := range keys {
		if out[i].err != nil {
			continue
		}
		p := &probes[i]
		reports[i] = RepairReport{Checked: p.probed, Moved: len(p.places) > 1}
		if stale != nil && stale[i] {
			out[i].err = e.planPurge(&pg, i, key, p)
			continue
		}
		chunks, err := e.plan(b, &pg, i, key, p, reports[i].Moved)
		rebuilt, out[i].err = append(rebuilt, chunks...), err
	}
	b.settle(rings.View, &pg, reports, out)
	// The rebuilt chunks were drawn from the shared shard pool; the
	// refills copied them into their payloads, and every write has
	// completed.
	for _, chunk := range rebuilt {
		erasure.DefaultPool.Put(chunk)
	}
	return out
}

// plan decides key i's writes from its probe p, and returns the chunks
// it rebuilt from the shard pool with its verdict.
func (e *ecStrategy) plan(b *batcher, pg *page, i int, key string, p *chunkProbe, moved bool) ([][]byte, error) {
	n := e.k + e.m
	win := p.Best()
	newest, elsewhere := slices.Max(p.at[0]), uint64(0)
	for _, held := range p.at[1:] {
		elsewhere = max(elsewhere, slices.Max(held))
	}
	switch {
	case p.wrongEpoch:
		// Stale placement snapshot: bail out so the epoch retry
		// re-resolves before any write lands on the wrong ring.
		return nil, wire.ErrWrongEpoch
	case win != nil:
	case p.Seen() == 0 && p.notFound == p.probed:
		return nil, ErrNotFound
	case p.reachable < p.probed:
		return nil, fmt.Errorf("%w: no stripe of %q has %d chunks", ErrUnavailable, key, e.k)
	case moved && newest > elsewhere:
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
		pg.leftovers = e.drains(pg.leftovers, i, key, p, 1, newest)
		return nil, nil
	default:
		// Every chunk holder of every source is alive and answered, yet no
		// stripe retains K chunks: the value is irrecoverably lost (more
		// than M holders crashed empty before a repair could run). Leaving
		// the orphan chunks behind would make every future read and every
		// scrub cycle fail on a value that cannot come back, so treat
		// this as authoritative loss: purge the remnants the probe saw and
		// report a clean miss (settle reports a purge that failed).
		pg.purges = e.drains(pg.purges, i, key, p, 0, math.MaxUint64)
		return nil, ErrNotFound
	}

	// An unmoved key's repair rewrites whatever does not hold the winning
	// stripe's chunk — lost, corrupt, or from a superseded or torn write.
	// Stripe IDs are time-ordered, and a stripe newer than the winner is
	// torn only once it is older than any write of it can run (its round
	// and its unwind, 2 OpTimeouts); before that it is a write in flight,
	// which a refill of the older winner would cut below the holders that
	// acknowledged it. A moved key keeps whatever is newer: the current
	// ring already routed that overwrite correctly.
	var need, lost []int
	chunks := win.Chunks()
	settled := wire.StripeIDAt(time.Now().Add(-2 * e.c.cfg.OpTimeout))
	for j, held := range p.at[0] {
		if held != win.Stripe && (held < win.Stripe || !moved && held < settled) {
			need = append(need, j)
		}
		if chunks[j] == nil {
			lost = append(lost, j)
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
			return nil, err
		}
		for j := e.k; !ok && j < n; j++ {
			need, lost = append(need, j), append(lost, j)
			chunks[j] = nil
		}
	}
	var rebuilt [][]byte
	if len(need) > 0 && len(lost) > 0 {
		start := time.Now()
		if err := e.code.Reconstruct(chunks); err != nil {
			return nil, err
		}
		b.code += time.Since(start)
		e.c.mReconstructs.Inc()
		for _, j := range lost {
			rebuilt = append(rebuilt, chunks[j])
		}
	}
	// Each refill replaces only the version the probe saw at its holder
	// (an absent chunk is an add: Meta.K > 0 permits the insert), so
	// anything written there since the probe wins. The executor wraps
	// each chunk in its payload as it issues the frame.
	for _, j := range need {
		pg.refills = append(pg.refills, subOp{addr: p.places[0][j], key: i, rawChunk: true, req: wire.BatchReq{
			Op: wire.OpCompareSet, Key: key, Chunk: wire.ChunkOf(j), Value: chunks[j],
			TTLSeconds: win.TTL, Compare: p.seen[0][j], Meta: wire.ECMeta{
				ChunkIndex: uint8(j), K: uint8(e.k), M: uint8(e.m),
				TotalLen: win.TotalLen, Stripe: win.Stripe,
			},
		}})
	}
	pg.drains = e.drains(pg.drains, i, key, p, 1, win.Stripe)
	return rebuilt, nil
}

// planPurge plans the purge of the stale stripe of key i, whose
// replicated form converged. K or more holders out of reach may still
// hold a decodable stripe between them, which is an error, so the
// scrubber retries next cycle; fewer cannot.
func (e *ecStrategy) planPurge(pg *page, i int, key string, p *chunkProbe) error {
	switch {
	case p.wrongEpoch:
		return wire.ErrWrongEpoch
	case p.probed-p.reachable >= e.k:
		return fmt.Errorf("%w: %d chunk holders of %q unreached", ErrUnavailable, p.probed-p.reachable, key)
	}
	pg.purges = e.drains(pg.purges, i, key, p, 0, math.MaxUint64)
	return nil
}

// drains appends to ops the stripe-conditional deletes of the chunks of
// key i that placements from and later hold, none newer than limit — a
// newer one is not the convergence's to remove — at the locations the
// probe asked (seen[s][j] != 0: a position a later placement did not
// move was asked once, at its first placement). Each is conditional on
// the version seen there, so only the copy the probe accounted for
// goes: a write that lands after the probe changes the version and the
// delete misses, harmlessly.
func (e *ecStrategy) drains(ops []subOp, i int, key string, p *chunkProbe, from int, limit uint64) []subOp {
	for s := from; s < len(p.places); s++ {
		for j, stripe := range p.seen[s] {
			if stripe != 0 && stripe <= limit {
				ops = append(ops, subOp{addr: p.places[s][j], key: i, req: wire.BatchReq{
					Op: wire.OpDelete, Key: key, Chunk: wire.ChunkOf(j), Compare: stripe,
				}})
			}
		}
	}
	return ops
}

// converge for the hybrid policy: converge whichever representation
// exists, the replicated one first. A repair that finds both — a
// cross-threshold overwrite whose purge of the old form did not
// complete — lets the replicated form win, because the read path
// resolves it first: converging on it makes what reads already observe
// durable, while any other choice would flip the value reads return.
// The replicated page settles before the erasure-coded page probes, and
// a key whose replicated form converged has its stale stripe purged in
// that page, chunk by chunk against the stripe its probe saw, so a
// healthy small key costs one probe of each form and no write. A
// stripe's absence says nothing of replicas out of reach, so it does
// not hide the replicated side's failure (the read path's rule too).
func (h *hybridStrategy) converge(b *batcher, keys []string, reports []RepairReport) []result {
	out := h.rep.converge(b, keys, reports)
	stale := make([]bool, len(keys))
	for i := range out {
		stale[i] = out[i].err == nil
	}
	ecReports := make([]RepairReport, len(keys))
	for i, ec := range h.ec.convergeOrPurge(b, keys, stale, ecReports) {
		switch {
		case stale[i]:
			out[i].err = ec.err
		case errors.Is(ec.err, ErrNotFound) && !errors.Is(out[i].err, ErrNotFound):
		default:
			out[i], reports[i] = ec, ecReports[i]
		}
	}
	return out
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
