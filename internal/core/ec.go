package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/membership"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// ecStrategy implements online Reed-Solomon erasure coding with the
// client/server encode/decode placements of Section IV-B.
type ecStrategy struct {
	c      *Client
	code   *erasure.RSVan
	k, m   int
	scheme Scheme
}

var _ strategy = (*ecStrategy)(nil)

func newECStrategy(c *Client) (*ecStrategy, error) {
	// The code draws reconstruction buffers from erasure.DefaultPool, its
	// default; the get/repair paths rely on that when they hand rebuilt
	// chunks back to the pool.
	code, err := erasure.NewRSVan(c.cfg.K, c.cfg.M)
	if err != nil {
		return nil, err
	}
	return &ecStrategy{
		c:      c,
		code:   code,
		k:      c.cfg.K,
		m:      c.cfg.M,
		scheme: c.cfg.Scheme,
	}, nil
}

func (e *ecStrategy) clientEncodes() bool {
	return e.scheme == SchemeCECD
}

func (e *ecStrategy) clientDecodes() bool {
	return e.scheme == SchemeCECD || e.scheme == SchemeSECD
}

// set is the erasure-coded write: one stripe write of every write,
// encoded by the client (stripeSet) or by a coordinator server
// (coordinatorSet). A one-key write's result lives in the batcher.
func (e *ecStrategy) set(b *batcher, writes []write) []result {
	if !e.clientEncodes() {
		return e.coordinatorSet(b, writes)
	}
	out := b.setBuf[:]
	if len(writes) > 1 {
		out = make([]result, len(writes))
	}
	e.stripeSet(b, writes, out)
	return out
}

// stripeSet is the client-encode write of every write, answered into
// out by position: split, compute parity, then distribute ALL keys' K+M
// chunks in one round of non-blocking writes — each chunk holder
// receives one frame carrying its chunk of every key (Equation 7:
// T_encode + max over chunks of (L + D/(B·K))). A conditional write
// (Cas, Add) is the same round of OpCompareSet chunk writes, each a
// per-holder CompareSwap against the expected stripe. The round is
// waited out in full even after a failure: returning early would let the
// remaining in-flight chunk writes keep landing after the error is
// reported, leaving a torn stripe of this write that can shadow the
// previous complete one. Failed keys' stripes are then unwound, but
// for a write that more than M holders took and the rest rejected only
// for its epoch: unwinding it would leave neither stripe decodable, so
// it is kept, and its epoch retry writes the same stripe (batcher.kept;
// DESIGN §5b).
func (e *ecStrategy) stripeSet(b *batcher, writes []write, out []result) {
	n := e.k + e.m
	ring, epoch := e.c.placementSnapshot()
	var buf roundBuf
	ops := roundOps(&buf, len(writes)*n)
	// The common few-writes call keeps its split handles on the stack.
	var splitBuf [4]*erasure.PooledShards
	splits := splitBuf[:0]
	var placeBuf [8]string
	start := time.Now()
	for i, w := range writes {
		placement := appendPlacement(placeBuf[:0], ring, w.key, n)
		if len(placement) == 0 {
			out[i] = result{err: ErrUnavailable}
			continue
		}
		// The data shards are windows of w.value (the caller keeps it
		// unmodified until the Set returns), the ragged last one and the
		// parity come from the shared pool; all ride in the sub-ops as raw
		// chunks, so the split is held until the round is over.
		ps := erasure.SplitPooled(w.value, e.k, e.m, nil)
		splits = append(splits, ps)
		if err := e.code.Encode(ps.Shards); err != nil {
			out[i] = result{err: err}
			continue
		}
		meta := wire.ECMeta{
			K:        uint8(e.k),
			M:        uint8(e.m),
			TotalLen: uint32(len(w.value)),
			Stripe:   b.kept[w.key],
		}
		if meta.Stripe == 0 {
			meta.Stripe = wire.NewStripeID()
		}
		op := wire.OpSetChunk
		if w.cas {
			op = wire.OpCompareSet
		}
		for j, addr := range placement {
			cm := meta
			cm.ChunkIndex = uint8(j)
			ops = append(ops, subOp{addr: addr, key: i, rawChunk: true, req: wire.BatchReq{
				Op:         op,
				Key:        w.key,
				Chunk:      wire.ChunkOf(j),
				Value:      ps.Shards[j],
				TTLSeconds: wire.TTLSeconds(w.ttl),
				Compare:    w.expect,
				Meta:       cm,
			}})
		}
		out[i] = result{item: Item{Version: meta.Stripe}}
	}
	b.code += time.Since(start)
	b.send(ops, epoch)
	for _, ps := range splits {
		ps.Release()
	}
	// One verdict per key, from its contiguous run of chunk writes.
	var dead []deadStripe
	for lo := 0; lo < len(ops); {
		i, w := ops[lo].key, &writes[ops[lo].key]
		conflict, priors, landed, epochOnly := false, 0, 0, true
		var err error
		for ; lo < len(ops) && ops[lo].key == i; lo++ {
			op := &ops[lo]
			opErr := op.fail()
			if w.cas && errors.Is(opErr, wire.ErrExists) && op.resp.Meta.Stripe == op.req.Meta.Stripe {
				opErr = nil // the holder has this very chunk already (batcher.kept)
			}
			switch {
			case opErr == nil:
				landed++
				if op.resp.Meta.Stripe != 0 {
					priors++ // this holder really held the old stripe
				}
			case w.cas && errors.Is(opErr, wire.ErrExists):
				conflict = true
			case err == nil:
				err = fmt.Errorf("chunk %d write: %w", op.req.Meta.ChunkIndex, opErr)
			}
			epochOnly = epochOnly && (opErr == nil || errors.Is(opErr, wire.ErrWrongEpoch))
		}
		if err != nil && !conflict && epochOnly && landed > e.m {
			if b.kept == nil {
				b.kept = make(map[string]uint64)
			}
			b.kept[w.key], out[i] = out[i].item.Version, result{err: err}
			continue
		}
		switch {
		case conflict:
			// A holder's version differed from the token: a lost race,
			// whatever else failed.
			err = ErrCASConflict
		case err == nil && w.cas && w.expect != wire.CompareAbsent && priors == 0 && !e.heldElsewhere(b, w.key, w.expect):
			// Every holder accepted, but none held the old stripe, nor does
			// a draining placement: the key did not exist, so a strict CAS
			// must not create it.
			err = ErrNotFound
		}
		if err != nil {
			dead = append(dead, deadStripe{key: w.key, placement: placementOn(ring, w.key, n), stripe: out[i].item.Version})
			out[i] = result{err: err}
		}
	}
	b.release()
	if len(dead) > 0 {
		e.c.mUnwinds.Add(int64(len(dead)))
		e.unwindStripes(b, epoch, dead)
	}
}

// deadStripe names the chunks a failed write may have left behind.
type deadStripe struct {
	key       string
	placement []string
	stripe    uint64
}

// unwindStripes best-effort deletes dead stripes' chunks in one round of
// stripe-conditional deletes — so a concurrent newer overwrite is never
// deleted by mistake. Errors are ignored: a chunk holder that is down
// keeps its stale chunk, but with fewer than K chunks the dead stripe
// can never be decoded or shadow an older one.
func (e *ecStrategy) unwindStripes(b *batcher, epoch uint64, dead []deadStripe) {
	var buf roundBuf
	ops := roundOps(&buf, len(dead)*(e.k+e.m))
	for _, d := range dead {
		for j, addr := range d.placement {
			ops = append(ops, subOp{addr: addr, req: wire.BatchReq{
				Op: wire.OpDelete, Key: d.key, Chunk: wire.ChunkOf(j), Compare: d.stripe,
			}})
		}
	}
	// Cleanup runs after the failed write already spent up to one full
	// deadline waiting; half a deadline here keeps the whole Set within
	// the documented 2x OpTimeout bound even when the same hung holder
	// eats both phases.
	b.sendWithin(ops, epoch, e.c.cfg.OpTimeout/2)
	// A holder that adopted a newer view since the write rejects its
	// unwind too, and would keep the dead chunk for good: a leftover
	// chunk fails every later CAS add at that holder. The deletes are
	// stripe-conditional, so they hold at any epoch: resend the rejected
	// ones at the cluster's current epoch.
	var stale []subOp
	for i := range ops {
		if ops[i].err == nil && ops[i].resp.Status == wire.StatusWrongEpoch {
			stale = append(stale, subOp{addr: ops[i].addr, req: ops[i].req})
		}
	}
	b.release()
	if len(stale) == 0 {
		return
	}
	if view, err := e.c.RefreshView(); err == nil && view.Epoch != epoch {
		b.sendWithin(stale, view.Epoch, e.c.cfg.OpTimeout/2)
		b.release()
	}
}

// coordinatorSet is the server-encode write (Era-SE-*): the whole
// value goes to the primary, which encodes and distributes the chunks
// itself and mints the stripe ID that is the write's version. If the
// primary is down the next placement server takes over as coordinator —
// but ONLY when it was unreachable. A timeout is NOT failed over: the
// write may be mid-flight on the first coordinator, and re-running it
// elsewhere would be a silent retry past the stripe-write stage. Each
// coordinator receives one frame with every write it coordinates, and
// stripes them all in one round of its own.
func (e *ecStrategy) coordinatorSet(b *batcher, writes []write) []result {
	return e.c.walk(b, keysOf(writes), e.k+e.m,
		func(i int) wire.BatchReq {
			w := writes[i]
			return wire.BatchReq{
				Op: wire.OpEncodeSet, Key: w.key, Value: w.value,
				TTLSeconds: wire.TTLSeconds(w.ttl),
				Meta:       wire.ECMeta{K: uint8(e.k), M: uint8(e.m), TotalLen: uint32(len(w.value))},
			}
		},
		func(err error) bool { return errors.Is(err, rpc.ErrServerDown) })
}

// keysOf returns the keys of writes, by position.
func keysOf(writes []write) []string {
	keys := make([]string, len(writes))
	for i, w := range writes {
		keys[i] = w.key
	}
	return keys
}

// get is the erasure-coded read. Reads are idempotent, so transient
// failures (timeouts, down servers) are retried with backoff and epoch
// rejections re-resolved; authoritative answers are not retried.
// Era-SE-SD asks each key's primary to aggregate and decode, one frame
// per primary, walking to the next placement server when it is down — a
// decode coordinator that times out IS failed over, unlike an encode
// coordinator, because asking another server to read is always safe.
// The coordinator applies gatherGet's absence rule: it answers NotFound
// only on conclusive evidence, and any other failure to produce the
// value is unavailability here.
func (e *ecStrategy) get(b *batcher, keys []string) []result {
	return e.c.retryKeys(true, func(idx []int) []result {
		keys := subset(keys, idx)
		if e.clientDecodes() {
			return e.gatherGet(b, keys)
		}
		meta := wire.ECMeta{K: uint8(e.k), M: uint8(e.m)}
		res := e.c.walk(b, keys, e.k+e.m,
			func(i int) wire.BatchReq { return wire.BatchReq{Op: wire.OpDecodeGet, Key: keys[i], Meta: meta} },
			rpc.IsUnavailable)
		for i := range res {
			switch err := res[i].err; {
			case err == nil, errors.Is(err, ErrNotFound), errors.Is(err, ErrUnavailable), errors.Is(err, wire.ErrWrongEpoch):
			default:
				res[i].err = fmt.Errorf("%w: %v", ErrUnavailable, err)
			}
		}
		return res
	})
}

// gatherGet is the client-decode read (Equation 8): one round fetching
// K chunks of every key — the data chunks, or parity in place of those
// whose holders the pool avoids (rpc.Pool.Avoided) — each server receiving ONE
// frame carrying its chunk of every key it holds; then, for the keys
// still short of K chunks, a round asking for what each one's most
// complete stripe lacks, then a last round asking for every position
// not asked yet, then per-key reconstruction. A key that ends
// undecodable has asked all K+M positions, so the absence rule sees
// every answer (DESIGN §12). The chunks alias the pooled response
// bodies, which stay leased until Join has copied every value out.
//
// A one-key read keeps its state in the batcher (getBuf, gatherBuf,
// holderBuf), which the next gatherGet of the operation reuses: a
// retryKeys round reads the results it retries before it asks for new
// ones, and every other caller copies its result out first.
func (e *ecStrategy) gatherGet(b *batcher, keys []string) []result {
	n := e.k + e.m
	var out []result
	var states []gather
	// Every key's placement, resolved once for all the rounds, is a
	// window of holders.
	var holders []string
	if len(keys) == 1 && n <= len(b.holderBuf) {
		b.getBuf, b.gatherBuf = [1]result{}, [1]gather{}
		out, states = b.getBuf[:], b.gatherBuf[:]
		holders = b.holderBuf[:0]
	} else {
		out, states = make([]result, len(keys)), make([]gather, len(keys))
		holders = make([]string, 0, len(keys)*n)
	}
	rings := e.c.view.Rings()
	ring, epoch := rings.Current, rings.View.Epoch
	var skipBuf [8]string
	skipped := e.c.pool.Avoided(skipBuf[:0], e.c.now)
	for i, key := range keys {
		st := &states[i]
		st.ChunkCollector = wire.NewChunkCollector(e.k, n)
		start := len(holders)
		if holders = appendPlacement(holders, ring, key, n); len(holders) == start {
			out[i].err = ErrUnavailable
			continue
		}
		st.placement = holders[start:]
		if len(skipped) > 0 {
			st.skip = skipSet(st.placement, skipped)
		}
	}
	defer b.release()

	// Each round asks, for every key, what ChunkCollector.NextRound says:
	// K chunks, around the skipped holders; then what its most complete
	// stripe lacks; then every position left. A round nobody needs ends
	// the read.
	var buf roundBuf
	ops := roundOps(&buf, len(keys)*e.k) // a later round, when needed, may grow it
	for {
		ops = ops[:0]
		for i := range states {
			st := &states[i]
			if st.placement == nil {
				continue
			}
			want := st.NextRound(st.asked, st.skip)
			if st.asked == (erasure.ShardSet{}) && st.skip != (erasure.ShardSet{}) {
				for j := 0; j < e.k; j++ {
					if st.skip.Has(j) && !want.Has(j) {
						e.c.mSkipped.Inc()
					}
				}
			}
			for j := 0; j < n; j++ {
				if want.Has(j) {
					st.asked.Add(j)
					ops = append(ops, subOp{addr: st.placement[j], key: i, req: wire.BatchReq{
						Op: wire.OpGetChunk, Key: keys[i], Chunk: wire.ChunkOf(j),
					}})
				}
			}
		}
		if len(ops) == 0 {
			break
		}
		b.send(ops, epoch)
		for j := range ops {
			states[ops[j].key].classify(&ops[j])
		}
	}
	for i := range states {
		e.observe(&states[i])
	}
	if len(rings.Draining) > 0 {
		e.gatherDraining(b, rings, keys, states)
	}

	start := time.Now()
	for i, key := range keys {
		st := &states[i]
		if st.placement == nil {
			continue
		}
		win := st.Best()
		switch {
		case win != nil:
		case st.wrongEpoch:
			// A membership rejection anywhere means this placement was
			// computed against the wrong ring: let the retry loop refresh
			// and re-resolve instead of misreporting availability.
			out[i].err = wire.ErrWrongEpoch
		case st.reachable > 0 && st.notFound == st.reachable && n-st.reachable < e.k && !st.elsewhere:
			// Not-found only on conclusive evidence: every reachable chunk
			// location answered an authoritative miss, the unreachable
			// ones could not hold K chunks between them, and no draining
			// placement answered anything but a miss — so the key cannot
			// exist in decodable form. Anything weaker (a hung majority,
			// partial stripes, corrupt chunks) is unavailability, not
			// absence.
			out[i].err = ErrNotFound
		default:
			out[i].err = fmt.Errorf("%w: no stripe of %q has %d chunks available", ErrUnavailable, key, e.k)
		}
		if win == nil {
			continue
		}
		// Degraded read: rebuild only the missing data chunks (parity is
		// not needed once the value is joined).
		chunks := win.Chunks()
		var rebuilt erasure.ShardSet
		missing := 0
		for j := 0; j < e.k; j++ {
			if chunks[j] == nil {
				rebuilt.Add(j)
				missing++
			}
		}
		if missing > 0 {
			e.c.mDegraded.Inc()
			e.c.mRebuilt.Add(int64(missing))
			if out[i].err = e.code.ReconstructData(chunks); out[i].err != nil {
				continue
			}
		}
		value, err := erasure.Join(chunks, e.k, int(win.TotalLen))
		// Join copied the data out; the chunks the codec pool-allocated can
		// go back. Network-owned chunk buffers are never released here.
		for j := 0; j < e.k; j++ {
			if rebuilt.Has(j) {
				erasure.DefaultPool.Put(chunks[j])
			}
		}
		if err != nil {
			out[i].err = err
			continue
		}
		out[i].item = Item{Value: value, Version: win.Stripe, TTL: win.TTL}
	}
	b.code += time.Since(start)
	return out
}

// observe tells the pool what the current placement's rounds showed of
// a key that decoded from them: which holders returned a chunk of the
// winning stripe, and which none at all.
func (e *ecStrategy) observe(st *gather) {
	win := st.Best()
	if win == nil {
		return
	}
	chunks := win.Chunks()
	var hits, misses erasure.ShardSet
	for j := range st.placement {
		switch {
		case !st.asked.Has(j):
		case chunks[j] != nil:
			hits.Add(j)
		case !st.Holds(j):
			misses.Add(j)
		}
	}
	e.c.pool.ObserveChunks(st.placement, hits, misses, e.c.now)
}

// skipSet returns the positions of placement whose holders are in
// skipped.
func skipSet(placement, skipped []string) erasure.ShardSet {
	var s erasure.ShardSet
	for j, addr := range placement {
		if slices.Contains(skipped, addr) {
			s.Add(j)
		}
	}
	return s
}

// gather is one key's state across the rounds of a client-decode read:
// where its chunks live, which positions it has asked for and which its
// first round should ask around, and the chunks fetched so far, grouped
// by stripe in the collector.
type gather struct {
	placement   []string
	asked, skip erasure.ShardSet
	wire.ChunkCollector
	// reachable counts locations that answered at all (chunk, not-found
	// or another status); notFound the authoritative misses among them.
	// Timed-out and unreachable locations are in neither. wrongEpoch
	// marks a membership rejection from any holder: the key's verdict is
	// then the retriable epoch error, never NotFound/Unavailable.
	reachable, notFound int
	wrongEpoch          bool
	// elsewhere marks a draining-placement location that answered
	// anything but an authoritative miss (gatherDraining).
	elsewhere bool
}

// gatherDraining is gatherGet's round on the draining placements: every
// key still without a stripe of K chunks asks, in one round for all
// keys, each position's holder under every draining ring that places
// it elsewhere — data a membership change has not moved yet lives
// there. What comes back joins the key's collector; the counts the
// absence rule reads stay the current placement's, and any answer but a
// miss sets elsewhere, which rules the miss out.
func (e *ecStrategy) gatherDraining(b *batcher, rings *membership.Rings, keys []string, states []gather) {
	var ops []subOp
	for i := range states {
		st := &states[i]
		if st.placement == nil || st.wrongEpoch || st.Best() != nil {
			continue
		}
		places := sourcePlacements(rings, keys[i], e.k+e.m)
		eachSource(places, 1, func(s, j int) {
			ops = append(ops, subOp{addr: places[s][j], key: i, req: wire.BatchReq{
				Op: wire.OpGetChunk, Key: keys[i], Chunk: wire.ChunkOf(j),
			}})
		})
	}
	if len(ops) == 0 {
		return
	}
	b.send(ops, rings.View.Epoch)
	for j := range ops {
		st := &states[ops[j].key]
		reachable, notFound := st.reachable, st.notFound
		st.classify(&ops[j])
		st.elsewhere = st.elsewhere || st.notFound == notFound
		st.reachable, st.notFound = reachable, notFound
	}
}

// classify files the outcome of one chunk fetch — the one
// classification reads, repair and migration share — and
// returns the stripe of the chunk it accepted, 0 when the location
// yielded none: unreachable or hung (op.err), an authoritative miss, an
// epoch rejection, another status, or a corrupt or torn payload. The
// other chunks cover for it: parity on a read, a rewrite in a repair.
func (st *gather) classify(op *subOp) uint64 {
	if op.err != nil {
		return 0
	}
	st.reachable++
	switch op.resp.Status {
	case wire.StatusOK:
	case wire.StatusNotFound:
		st.notFound++
		return 0
	case wire.StatusWrongEpoch:
		st.wrongEpoch = true
		return 0
	default:
		return 0
	}
	meta, chunk, err := wire.DecodeChunkPayload(op.resp.Value)
	if err != nil {
		return 0
	}
	meta.Stripe = op.resp.Meta.Stripe // the item version the holder read the chunk with
	st.Add(meta, chunk, op.resp.TTLSeconds)
	return meta.Stripe
}

// del is the erasure-coded delete: every key's K+M chunk deletes in one
// round, every frame waited out, then classified per key. A non-zero
// expect makes every chunk delete conditional on the stripe (DeleteCas):
// a holder of another stripe answers Exists, a conflict when nothing
// named was deleted or that stripe outranks what was. After a deletion,
// sendRest removes the other stripes' chunks, so a stale leftover
// neither turns it into a conflict nor fails a later add. While the
// view drains, the round also deletes the chunks at the positions a
// draining placement moved; a removal there counts as a deletion, a
// failure or Exists there does not.
func (e *ecStrategy) del(b *batcher, keys []string, expect uint64) []result {
	out := make([]result, len(keys))
	rings := e.c.view.Rings()
	var buf roundBuf
	ops := e.delOps(roundOps(&buf, len(keys)*(e.k+e.m)), rings, keys, expect, out)
	b.send(ops, rings.View.Epoch)
	rest := e.delVerdict(ops, keys, out, nil)
	b.release()
	sendRest(b, rest, rings.View.Epoch)
	return out
}

// delOps appends every key's chunk deletes to ops, one contiguous run
// per key: its current placement's K+M first, then the moved positions
// of the draining ones. A key with no placement is answered unavailable
// in out.
func (e *ecStrategy) delOps(ops []subOp, rings *membership.Rings, keys []string, expect uint64, out []result) []subOp {
	n := e.k + e.m
	for i, key := range keys {
		placement := placementOn(rings.Current, key, n)
		if placement == nil {
			out[i].err = ErrUnavailable
			continue
		}
		for j, addr := range placement {
			ops = append(ops, subOp{addr: addr, key: i, req: wire.BatchReq{
				Op: wire.OpDelete, Key: key, Chunk: wire.ChunkOf(j), Compare: expect,
			}})
		}
		if len(rings.Draining) > 0 {
			places := sourcePlacements(rings, key, n)
			eachSource(places, 1, func(s, j int) {
				ops = append(ops, subOp{addr: places[s][j], key: i, req: wire.BatchReq{
					Op: wire.OpDelete, Key: key, Chunk: wire.ChunkOf(j), Compare: expect,
				}})
			})
		}
	}
	return ops
}

// delVerdict classifies the answers to delOps' round into out, and
// appends to rest the Exists answers of each key it deleted.
func (e *ecStrategy) delVerdict(ops []subOp, keys []string, out []result, rest []subOp) []subOp {
	n := e.k + e.m
	for lo := 0; lo < len(ops); {
		i, first := ops[lo].key, lo
		// deleted counts authoritative removals; failed counts unreachable
		// or timed-out current holders; status is the first current answer
		// that was neither OK, NotFound nor Exists.
		deleted, failed, conflict := 0, 0, false
		var failErr, status error
		for ; lo < len(ops) && ops[lo].key == i; lo++ {
			switch op := &ops[lo]; {
			case op.err == nil && op.resp.Status == wire.StatusOK:
				deleted++
			case lo-first >= n:
				// A draining position's other answers do not count.
			case op.err != nil:
				failed++
				if failErr == nil {
					failErr = op.err
				}
			case op.resp.Status == wire.StatusExists:
				conflict = true
			case op.resp.Status != wire.StatusNotFound && status == nil:
				status = op.resp.Err()
			}
		}
		switch {
		case conflict && (deleted == 0 || e.outranked(ops[first:first+n], deleted)):
			out[i].err = ErrCASConflict
			continue
		case status != nil && deleted > 0 && errors.Is(status, wire.ErrWrongEpoch):
			out[i].err = errDeletedStale
		case status != nil:
			// An epoch rejection above all: retryKeys re-resolves placement.
			out[i].err = status
		case deleted == 0 && failed >= e.k:
			// Nothing deleted, and the K or more holders unreached may hold
			// a decodable stripe between them: the key may still exist.
			out[i].err = fmt.Errorf("%w: delete %q: %v", ErrUnavailable, keys[i], failErr)
		case deleted == 0:
			// Every reachable holder answered not-found and fewer than K
			// went unreached: absent, by the get side's rule.
			out[i].err = ErrNotFound
		case failed >= e.k:
			// K or more holders unreached may keep enough chunks to decode
			// the old value: the delete is not durable.
			out[i].err = fmt.Errorf("%w: delete %q left %d chunk holders unreached", ErrUnavailable, keys[i], failed)
		}
		if deleted > 0 {
			rest = appendExisting(rest, ops[first:lo])
		}
	}
	return rest
}

// outranked reports whether the current holders' Exists answers name a
// stripe that beats the deleted chunks of the named one by Best's rule.
func (e *ecStrategy) outranked(current []subOp, deleted int) bool {
	for _, a := range current {
		held := 0
		for _, o := range current {
			if o.err == nil && o.resp.Status == wire.StatusExists && o.resp.Meta.Stripe == a.resp.Meta.Stripe {
				held++
			}
		}
		if held >= e.k && (held > deleted || held == deleted && a.resp.Meta.Stripe > a.req.Compare) {
			return true
		}
	}
	return false
}

// compareSet implements the conditional write for erasure coding: the
// stripe ID doubles as the version, and every chunk write is a
// per-holder CompareSwap against the expected old stripe. The write is
// always client-encoded (stripeSet), whatever the read/write scheme —
// the conditional decision must happen at each chunk holder, which the
// server-encode path cannot express.
//
// A holder whose chunk is missing (evicted, or crashed and restarted
// empty) accepts the conditional write and reports prior version 0;
// the stripe as a whole still existed if ANY holder reports the
// expected prior, so a strict CAS succeeds across partial chunk loss
// exactly when a plain Get would still have decoded the old value —
// and the successful CAS re-materialises the lost chunks. When NO
// holder held the old stripe the key is authoritatively absent:
// the freshly written chunks are unwound and ErrNotFound returned.
// Any holder answering StatusExists is a lost race: the new stripe is
// unwound (stripe-conditional deletes, so a newer write is never
// collateral damage) and ErrCASConflict returned.
func (e *ecStrategy) compareSet(b *batcher, key string, value []byte, ttl time.Duration, expect uint64) (uint64, error) {
	w := [1]write{{key: key, value: value, ttl: ttl, cas: true, expect: expect}}
	var out [1]result
	e.stripeSet(b, w[:], out[:])
	return out[0].item.Version, out[0].err
}

// heldElsewhere reports whether, while the view drains, a position a
// draining placement moved still holds key's chunk of stripe: a CAS
// whose first attempt an epoch change split — landed at the holders
// still on the old epoch, rejected at the rest, unwound — finds the old
// stripe only where the old ring placed it. The round's responses stay
// leased until the caller's release.
func (e *ecStrategy) heldElsewhere(b *batcher, key string, stripe uint64) bool {
	rings := e.c.view.Rings()
	if len(rings.Draining) == 0 {
		return false
	}
	places := sourcePlacements(rings, key, e.k+e.m)
	var ops []subOp
	eachSource(places, 1, func(s, i int) {
		ops = append(ops, subOp{addr: places[s][i], req: wire.BatchReq{Op: wire.OpGetChunk, Key: key, Chunk: wire.ChunkOf(i)}})
	})
	b.send(ops, rings.View.Epoch)
	return slices.ContainsFunc(ops, func(op subOp) bool {
		return op.err == nil && op.resp.Status == wire.StatusOK && op.resp.Meta.Stripe == stripe
	})
}

// hybridStrategy is the paper's future-work policy: replicate small
// values (replication reads are one cheap round trip), erasure-code
// large ones (where EC's bandwidth and memory savings dominate).
type hybridStrategy struct {
	rep *repStrategy
	ec  *ecStrategy
}

var _ strategy = (*hybridStrategy)(nil)

// set for the hybrid policy: writes partition by the size threshold
// into one replicated and one erasure-coded write. After a key's write
// lands, its OTHER representation is purged: a previous write of the
// key may have been on the far side of the threshold, and its leftovers
// would shadow this value on the rep-first read path (and a repair
// keeps the replicated form). The purge is best-effort — the new value
// is already durable, and the anti-entropy scrubber converges whatever a
// down holder makes this miss — but it must run AFTER the write
// succeeds, never before: purging first and then failing the write
// would lose the old value without installing the new one.
func (h *hybridStrategy) set(b *batcher, writes []write) []result {
	isSmall := func(w write) bool { return len(w.value) < DefaultHybridThreshold }
	nSmall := 0
	for _, w := range writes {
		if isSmall(w) {
			nSmall++
		}
	}
	// All on one side — every single-key Set — needs no split and merge.
	switch nSmall {
	case len(writes):
		return h.setVia(b, h.rep, h.ec, writes)
	case 0:
		return h.setVia(b, h.ec, h.rep, writes)
	}
	small, large := make([]int, 0, nSmall), make([]int, 0, len(writes)-nSmall)
	for i, w := range writes {
		if isSmall(w) {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	out := make([]result, len(writes))
	for j, r := range h.setVia(b, h.rep, h.ec, pick(writes, small)) {
		out[small[j]] = r
	}
	for j, r := range h.setVia(b, h.ec, h.rep, pick(writes, large)) {
		out[large[j]] = r
	}
	return out
}

// setVia writes through target and purges other for the keys that landed.
func (h *hybridStrategy) setVia(b *batcher, target, other strategy, writes []write) []result {
	out := target.set(b, writes)
	var purge []string
	for i, r := range out {
		if r.err == nil {
			purge = append(purge, writes[i].key)
		}
	}
	if len(purge) > 0 {
		other.del(b, purge, 0)
	}
	return out
}

// compareSet for the hybrid policy. The new value's size picks the
// representation the conditional write decides in; when the current
// item lives on the far side of the threshold no single conditional
// primitive spans both forms, so the version check degrades to a
// verified read followed by a plain hybrid set — atomic within each
// representation, best-effort across them (the same consistency class
// as hybrid get/del).
func (h *hybridStrategy) compareSet(b *batcher, key string, value []byte, ttl time.Duration, expect uint64) (uint64, error) {
	var target, other strategy = h.ec, h.rep
	if len(value) < DefaultHybridThreshold {
		target, other = h.rep, h.ec
	}
	cur := other.get(b, []string{key})[0]
	otherErr := cur.err
	switch {
	case otherErr == nil:
		// The key currently lives in the other representation.
		if expect == wire.CompareAbsent || cur.item.Version != expect {
			return 0, ErrCASConflict
		}
		// Cross-threshold CAS: checked, then written (hybrid set purges
		// the old form after the new one lands).
		r := h.set(b, []write{{key: key, value: value, ttl: ttl}})[0]
		return r.item.Version, r.err
	case errors.Is(otherErr, ErrNotFound):
		// Normal case: the key is absent from the other form, so the
		// conditional write is atomic within the target representation.
		return target.compareSet(b, key, value, ttl, expect)
	default:
		// The other form is unreachable: its state is unknown, and a
		// blind decision could resurrect or clobber it.
		return 0, otherErr
	}
}

// get for the hybrid policy. The write-side size is unknown at read
// time: probe the cheap replicated form for every key first, then the
// erasure-coded form for the keys the replicated probe reported absent
// or unavailable.
func (h *hybridStrategy) get(b *batcher, keys []string) []result {
	out := h.rep.get(b, keys)
	var probe []int
	for i, r := range out {
		if errors.Is(r.err, ErrNotFound) || errors.Is(r.err, ErrUnavailable) {
			probe = append(probe, i)
		}
	}
	if len(probe) == 0 {
		return out
	}
	for j, ec := range h.ec.get(b, pick(keys, probe)) {
		// "Not found" is conclusive only when BOTH probes answered
		// authoritatively. An EC-side miss proves nothing about the
		// replicated form: a small value whose replica holders are all
		// unreachable would otherwise be misreported as absent when it
		// still exists — so the replicated probe's unavailability wins.
		i := probe[j]
		if errors.Is(ec.err, ErrNotFound) && errors.Is(out[i].err, ErrUnavailable) {
			continue
		}
		out[i] = ec
	}
	return out
}

// del for the hybrid policy. The write-side form is unknown, so both
// forms' deletes ride one round. An unconditional delete surfaces a
// real failure on either side, or the failed form could resurrect the
// value; not-found is the verdict only when both sides agree. A
// conditional delete decides in the read path's order: the replicated
// verdict stands unless it is not-found, and then the erasure-coded one
// decides. After a rep-side deletion, an erasure-coded form that
// answered anything but absence or the named stripe is purged
// unconditionally, as a hybrid set purges the other representation.
func (h *hybridStrategy) del(b *batcher, keys []string, expect uint64) []result {
	out, ecOut := make([]result, len(keys)), make([]result, len(keys))
	rings := h.rep.c.view.Rings()
	ops := h.rep.delOps(nil, rings, keys, expect, out)
	split := len(ops)
	ops = h.ec.delOps(ops, rings, keys, expect, ecOut)
	b.send(ops, rings.View.Epoch)
	rest := h.rep.delVerdict(ops[:split], out, nil)
	rest = h.ec.delVerdict(ops[split:], keys, ecOut, rest)
	b.release()
	sendRest(b, rest, rings.View.Epoch)
	var purge []string
	for i, ec := range ecOut {
		rep := out[i].err
		repGone := errors.Is(rep, ErrNotFound)
		ecFailed := ec.err != nil && !errors.Is(ec.err, ErrNotFound)
		switch {
		case expect != 0 && rep == nil && ecFailed:
			purge = append(purge, keys[i])
		case expect != 0 && repGone, expect == 0 && (rep == nil || repGone) && ecFailed:
			out[i].err = ec.err
		case expect == 0 && repGone && ec.err == nil:
			out[i].err = nil
		}
	}
	if len(purge) > 0 {
		h.ec.del(b, purge, 0)
	}
	return out
}

// distinct returns a copy of ss with duplicates removed, first
// occurrence order preserved: the servers of a placement that wrapped on
// a small cluster, or of two views, and the keys of a bulk read that
// lists one twice (readKeys).
func distinct(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	out := make([]string, 0, len(ss))
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
