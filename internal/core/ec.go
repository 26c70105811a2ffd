package core

import (
	"errors"
	"fmt"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// ecStrategy implements online Reed-Solomon erasure coding with the
// four client/server encode/decode placements of Section IV-B.
type ecStrategy struct {
	c      *Client
	code   *erasure.RSVan
	k, m   int
	scheme Scheme
}

var _ strategy = (*ecStrategy)(nil)

func newECStrategy(c *Client) (*ecStrategy, error) {
	// The code draws reconstruction buffers from erasure.DefaultPool;
	// the get/repair paths rely on that when they hand rebuilt chunks
	// back to the pool.
	code, err := erasure.NewRSVan(c.cfg.K, c.cfg.M, erasure.WithPool(erasure.DefaultPool))
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
	return e.scheme == SchemeCECD || e.scheme == SchemeCESD
}

func (e *ecStrategy) clientDecodes() bool {
	return e.scheme == SchemeCECD || e.scheme == SchemeSECD
}

// set is the erasure-coded write. A write that asks for it first tries
// the delta overwrite of a known base: K+M sparse patches instead of a
// re-stripe (DESIGN §14); any disagreement — no base, resized value,
// oversized patch, version conflict, lost chunk — falls through to the
// full write with the rest.
func (e *ecStrategy) set(b *batcher, writes []write) []result {
	out := make([]result, len(writes))
	for i, w := range writes {
		// errDeltaFallback marks the writes still to be done in full.
		out[i].err = errDeltaFallback
		if w.patch {
			out[i].item.Version, out[i].err = e.trySetDelta(b, w.key, w.value, w.ttl, 0, false)
		}
	}
	if e.clientEncodes() {
		e.stripeSet(b, writes, out)
	} else {
		e.coordinatorSet(b, writes, out)
	}
	return out
}

// stripeSet is the client-encode full write of every write still marked
// errDeltaFallback in out: split, compute parity, then distribute ALL
// keys' K+M chunks in one round of non-blocking writes — each chunk
// holder receives one frame carrying its chunk of every key (Equation
// 7: T_encode + max over chunks of (L + D/(B·K))). The round is waited
// out in full even after a failure: returning early would let the
// remaining in-flight chunk writes keep landing after the error is
// reported, leaving a torn stripe of this write that can shadow the
// previous complete one. Failed keys' stripes are then unwound.
func (e *ecStrategy) stripeSet(b *batcher, writes []write, out []result) {
	n := e.k + e.m
	ring, epoch := e.c.placementSnapshot()
	var buf roundBuf
	ops := roundOps(&buf, len(writes)*n)
	// The common few-writes call keeps its split handles on the stack.
	var splitBuf [4]*erasure.PooledShards
	splits := splitBuf[:0]
	var keyBuf [8]string // one key's chunk keys: substrings of one string
	var placeBuf [8]string
	start := time.Now()
	for i, w := range writes {
		if out[i].err != errDeltaFallback {
			continue
		}
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
		e.c.mECWriteBytes.Add(int64(n) * int64(wire.ChunkPayloadOverhead+len(ps.Shards[0])))
		meta := wire.ECMeta{
			K:        uint8(e.k),
			M:        uint8(e.m),
			TotalLen: uint32(len(w.value)),
			Stripe:   wire.NewStripeID(),
		}
		keys := wire.AppendChunkKeys(keyBuf[:0], w.key, 0, n)
		for j, addr := range placement {
			cm := meta
			cm.ChunkIndex = uint8(j)
			ops = append(ops, subOp{addr: addr, key: i, rawChunk: true, req: wire.BatchReq{
				Op:         wire.OpSetChunk,
				Key:        keys[j],
				Value:      ps.Shards[j],
				TTLSeconds: wire.TTLSeconds(w.ttl),
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
	var dead []deadStripe
	for j := range ops {
		op := &ops[j]
		if err := op.fail(); err != nil && out[op.key].err == nil {
			key := writes[op.key].key
			dead = append(dead, deadStripe{key, placementOn(ring, key, n), out[op.key].item.Version})
			out[op.key] = result{err: fmt.Errorf("chunk %d write: %w", op.req.Meta.ChunkIndex, err)}
		}
	}
	b.release()
	e.unwindStripes(b, epoch, dead)
}

// deadStripe names the chunks a failed write may have left behind.
type deadStripe struct {
	key       string
	placement []string
	stripe    uint64
}

// unwindStripes best-effort deletes the chunks failed writes may have
// landed, in one round of stripe-conditional deletes — so a concurrent
// newer overwrite is never deleted by mistake. Errors are ignored: a
// chunk holder that is down keeps its stale chunk, but with fewer than
// K chunks the dead stripe can never be decoded or shadow an older one.
func (e *ecStrategy) unwindStripes(b *batcher, epoch uint64, dead []deadStripe) {
	if len(dead) == 0 {
		return
	}
	e.c.mUnwinds.Add(int64(len(dead)))
	var buf roundBuf
	ops := roundOps(&buf, len(dead)*(e.k+e.m))
	var keyBuf [8]string
	for _, d := range dead {
		keys := wire.AppendChunkKeys(keyBuf[:0], d.key, 0, len(d.placement))
		for j, addr := range d.placement {
			ops = append(ops, subOp{addr: addr, req: wire.BatchReq{
				Op:   wire.OpDelete,
				Key:  keys[j],
				Meta: wire.ECMeta{Stripe: d.stripe},
			}})
		}
	}
	// Cleanup runs after the failed write already spent up to one full
	// deadline waiting; half a deadline here keeps the whole Set within
	// the documented 2x OpTimeout bound even when the same hung holder
	// eats both phases.
	b.sendWithin(ops, epoch, e.c.cfg.OpTimeout/2)
	b.release()
}

// coordinatorSet is the server-encode full write (Era-SE-*): the whole
// value goes to the primary, which encodes and distributes the chunks
// itself and mints the stripe ID that is the write's version. If the
// primary is down the next placement server takes over as coordinator —
// but ONLY when it was unreachable. A timeout is NOT failed over: the
// write may be mid-flight on the first coordinator, and re-running it
// elsewhere would be a silent retry past the stripe-write stage.
// OpEncodeSet is not batchable; the executor pipelines plain frames.
func (e *ecStrategy) coordinatorSet(b *batcher, writes []write, out []result) {
	var idx []int
	for i := range writes {
		if out[i].err == errDeltaFallback {
			idx = append(idx, i)
			e.c.mECWriteBytes.Add(int64(len(writes[i].value)))
		}
	}
	if len(idx) == 0 {
		return
	}
	todo := pick(writes, idx)
	res := e.c.walk(b, keysOf(todo), e.k+e.m,
		func(i int) wire.BatchReq {
			w := todo[i]
			return wire.BatchReq{
				Op: wire.OpEncodeSet, Key: w.key, Value: w.value,
				TTLSeconds: wire.TTLSeconds(w.ttl),
				Meta:       wire.ECMeta{K: uint8(e.k), M: uint8(e.m), TotalLen: uint32(len(w.value))},
			}
		},
		func(err error) bool { return errors.Is(err, rpc.ErrServerDown) })
	for j, i := range idx {
		out[i] = res[j]
	}
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
// Server-decode schemes (Era-*-SD) ask the primary to aggregate and
// decode, walking to the next placement server when it is down — a
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
// chunks [0,K) of every key — each server receives ONE frame carrying
// its chunk of every key it holds — then, for the keys still short of K
// chunks, a parity round asking for what each one's most complete
// stripe lacks, then a last round asking for every position not asked
// yet, then per-key reconstruction. A key that ends undecodable has
// asked all K+M positions, so the absence rule sees every answer
// (DESIGN §12). The chunks alias the pooled response bodies, which stay
// leased until Join has copied every value out.
//
// A one-key read keeps its state in the batcher (getBuf, gatherBuf,
// holderBuf, chunkKeyBuf), which the next gatherGet of the operation
// reuses: a retryKeys round reads the results it retries before it asks
// for new ones, and every other caller copies its result out first.
func (e *ecStrategy) gatherGet(b *batcher, keys []string) []result {
	n := e.k + e.m
	var out []result
	var states []gather
	// Every key's placement is a window of holders, and its chunk keys,
	// built once for all the rounds, a window of chunkKeys.
	var holders, chunkKeys []string
	if len(keys) == 1 && n <= len(b.holderBuf) {
		b.getBuf, b.gatherBuf = [1]result{}, [1]gather{}
		out, states = b.getBuf[:], b.gatherBuf[:]
		holders, chunkKeys = b.holderBuf[:0], b.chunkKeyBuf[:0]
	} else {
		out, states = make([]result, len(keys)), make([]gather, len(keys))
		names := make([]string, 2*len(keys)*n)
		holders, chunkKeys = names[:0:len(keys)*n], names[len(keys)*n:][:0]
	}
	ring, epoch := e.c.placementSnapshot()
	for i, key := range keys {
		st := &states[i]
		st.ChunkCollector = wire.NewChunkCollector(e.k, n)
		start := len(holders)
		if holders = appendPlacement(holders, ring, key, n); len(holders) == start {
			out[i].err = ErrUnavailable
			continue
		}
		st.placement = holders[start:]
		start = len(chunkKeys)
		chunkKeys = wire.AppendChunkKeys(chunkKeys, key, 0, n)
		st.chunkKeys = chunkKeys[start:]
	}
	defer b.release()

	// Each round asks, for every key, what ChunkCollector.NextRound says:
	// the data chunks, then the parity its most complete stripe lacks,
	// then every position left. A round nobody needs ends the read.
	var buf roundBuf
	ops := roundOps(&buf, len(keys)*e.k) // a later round, when needed, may grow it
	for {
		ops = ops[:0]
		for i := range states {
			st := &states[i]
			if st.placement == nil {
				continue
			}
			want := st.NextRound(st.asked, func(j int) bool { return e.c.pool.Suspect(st.placement[j]) })
			for j := 0; j < n; j++ {
				if want.Has(j) {
					st.asked.Add(j)
					ops = append(ops, subOp{addr: st.placement[j], key: i, req: wire.BatchReq{
						Op: wire.OpGetChunk, Key: st.chunkKeys[j],
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
		case st.reachable > 0 && st.notFound == st.reachable && n-st.reachable < e.k:
			// Not-found only on conclusive evidence: every reachable chunk
			// location answered an authoritative miss, and the unreachable
			// ones could not hold K chunks between them — so the key
			// cannot exist in decodable form. Anything weaker (a hung
			// majority, partial stripes, corrupt chunks) is unavailability,
			// not absence.
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

// gather is one key's state across the rounds of a client-decode read:
// where its chunks live and under which keys, which positions it has
// asked for, and the chunks fetched so far, grouped by stripe in the
// collector.
type gather struct {
	placement, chunkKeys []string
	asked                erasure.ShardSet
	wire.ChunkCollector
	// reachable counts locations that answered at all (chunk, not-found
	// or another status); notFound the authoritative misses among them.
	// Timed-out and unreachable locations are in neither. wrongEpoch
	// marks a membership rejection from any holder: the key's verdict is
	// then the retriable epoch error, never NotFound/Unavailable.
	reachable, notFound int
	wrongEpoch          bool
}

// classify files the outcome of one chunk fetch — the one
// classification reads, verification, repair and migration share — and
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
// round, every frame waited out, then classified per key.
func (e *ecStrategy) del(b *batcher, keys []string) []result {
	n := e.k + e.m
	out := make([]result, len(keys))
	ring, epoch := e.c.placementSnapshot()
	var buf roundBuf
	ops := roundOps(&buf, len(keys)*n)
	var keyBuf [8]string
	for i, key := range keys {
		placement := placementOn(ring, key, n)
		if placement == nil {
			out[i].err = ErrUnavailable
			continue
		}
		chunkKeys := wire.AppendChunkKeys(keyBuf[:0], key, 0, n)
		for j, addr := range placement {
			ops = append(ops, subOp{addr: addr, key: i, req: wire.BatchReq{
				Op: wire.OpDelete, Key: chunkKeys[j],
			}})
		}
	}
	b.send(ops, epoch)
	// A key's sub-ops are contiguous: classify one key's run at a time.
	for lo := 0; lo < len(ops); {
		i := ops[lo].key
		// deleted counts authoritative removals; failed counts unreachable
		// or timed-out chunk holders; status is the first answer that was
		// neither OK nor NotFound.
		deleted, failed := 0, 0
		var failErr, status error
		for ; lo < len(ops) && ops[lo].key == i; lo++ {
			switch op := &ops[lo]; {
			case op.err != nil:
				failed++
				if failErr == nil {
					failErr = op.err
				}
			case op.resp.Status == wire.StatusOK:
				deleted++
			case op.resp.Status != wire.StatusNotFound && status == nil:
				status = op.resp.Err()
			}
		}
		switch {
		case status != nil:
			// Surfaces as is — an epoch rejection above all, which the
			// retry layer answers by re-resolving placement.
			out[i].err = status
		case deleted == 0 && failed >= e.k:
			// Nothing confirmed deleted and enough holders unreached to
			// hold a decodable stripe between them: the key may still
			// exist.
			out[i].err = fmt.Errorf("%w: delete %q: %v", ErrUnavailable, keys[i], failErr)
		case deleted == 0:
			// Every reachable location answered authoritatively not-found,
			// and the unreached ones (fewer than K) cannot hold a decodable
			// stripe between them: the key does not exist (memcached delete
			// semantics). Mirrors the get-side classification.
			out[i].err = ErrNotFound
		case failed >= e.k:
			// Some chunks were deleted but K or more holders never answered;
			// enough chunks may survive to still decode the old value, so
			// the delete cannot be reported as durable.
			out[i].err = fmt.Errorf("%w: delete %q left %d chunk holders unreached", ErrUnavailable, keys[i], failed)
		}
	}
	b.release()
	return out
}

// compareSet implements the conditional write for erasure coding: the
// stripe ID doubles as the version, and every chunk write is a
// per-holder CompareSwap against the expected old stripe. The write is
// always client-encoded, whatever the read/write scheme — the
// conditional decision must happen at each chunk holder, which the
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
	// A CAS against a near-cached base at exactly the expected version
	// can be expressed as K+M version-conditional patches — the delta
	// round's per-holder Compare IS the CAS check (DESIGN §14). An add
	// (expect == absent) has nothing to patch.
	if expect != wire.CompareAbsent {
		if version, err := e.trySetDelta(b, key, value, ttl, expect, true); !errors.Is(err, errDeltaFallback) {
			return version, err
		}
	}
	n := e.k + e.m
	placement, epoch := e.c.placement(key, n)
	if placement == nil {
		return 0, ErrUnavailable
	}
	start := time.Now()
	ps := erasure.SplitPooled(value, e.k, e.m, nil)
	defer ps.Release()
	shards := ps.Shards
	if err := e.code.Encode(shards); err != nil {
		return 0, err
	}
	b.code += time.Since(start)
	e.c.mECWriteBytes.Add(int64(n) * int64(wire.ChunkPayloadOverhead+len(shards[0])))

	meta := wire.ECMeta{
		K:        uint8(e.k),
		M:        uint8(e.m),
		TotalLen: uint32(len(value)),
		Stripe:   wire.NewStripeID(),
	}
	// One round of per-holder conditional writes; the executor wraps each
	// chunk as it issues its frame.
	var buf roundBuf
	ops := roundOps(&buf, n)
	var keyBuf [8]string
	keys := wire.AppendChunkKeys(keyBuf[:0], key, 0, n)
	for i, addr := range placement {
		cm := meta
		cm.ChunkIndex = uint8(i)
		ops = append(ops, subOp{addr: addr, rawChunk: true, req: wire.BatchReq{
			Op:         wire.OpCompareSet,
			Key:        keys[i],
			Value:      shards[i],
			TTLSeconds: wire.TTLSeconds(ttl),
			Compare:    expect,
			Meta:       cm,
		}})
	}
	b.send(ops, epoch)
	conflicts, priors := 0, 0
	var firstErr error
	for i := range ops {
		switch err := ops[i].fail(); {
		case err == nil:
			if ops[i].resp.Meta.Stripe != 0 {
				priors++ // this holder really held the old stripe
			}
		case errors.Is(err, wire.ErrExists):
			conflicts++
		case firstErr == nil:
			firstErr = fmt.Errorf("chunk %d conditional write: %w", i, err)
		}
	}
	b.release()
	switch {
	case conflicts > 0:
		firstErr = ErrCASConflict
	case firstErr != nil:
	case expect != wire.CompareAbsent && priors == 0:
		// Every holder accepted, but none of them held the old stripe:
		// the key did not exist, so a strict CAS must not create it.
		firstErr = ErrNotFound
	default:
		return meta.Stripe, nil
	}
	e.unwindStripes(b, epoch, []deadStripe{{key, placement, meta.Stripe}})
	return 0, firstErr
}

// compareDelete for erasure coding: the stripe ID doubles as the
// version and every chunk store entry carries it, so the decision is a
// per-chunk conditional delete against the expected stripe, walked in
// FIXED placement order, each step a round of one sub-op. A holder that
// answers NotFound merely evicted (or crashed and restarted without)
// its chunk — the stripe as a whole may still be readable, so the walk
// continues to the next holder, succeeding exactly when a plain Get
// would still have decoded the old value. A holder answering Exists is
// a lost race; nothing was removed, so ErrCASConflict is safe to
// report. Once one holder decides, the remaining chunks are removed in
// ONE round of STRIPE-conditional deletes (Meta.Stripe = expect) so a
// concurrent newer write's chunks are never collateral damage.
func (e *ecStrategy) compareDelete(b *batcher, key string, expect uint64) error {
	n := e.k + e.m
	placement, epoch := e.c.placement(key, n)
	if placement == nil {
		return ErrUnavailable
	}
	var keyBuf [8]string
	chunkKeys := wire.AppendChunkKeys(keyBuf[:0], key, 0, n)
	decided, failed := -1, 0
	var lastErr error
	for i := 0; i < n && decided < 0; i++ {
		step := [1]subOp{{addr: placement[i], req: wire.BatchReq{
			Op: wire.OpDelete, Key: chunkKeys[i], Compare: expect,
		}}}
		b.send(step[:], epoch)
		err := step[0].fail()
		b.release()
		switch {
		case err == nil:
			decided = i
		case errors.Is(err, wire.ErrExists):
			return ErrCASConflict
		case errors.Is(err, wire.ErrNotFound):
		case errors.Is(err, wire.ErrWrongEpoch):
			return err
		default:
			failed++
			lastErr = err
		}
	}
	if decided < 0 {
		if failed >= e.k {
			// Enough holders unreached to hold a decodable stripe between
			// them: absence is not provable.
			return fmt.Errorf("%w: delete %q: %v", ErrUnavailable, key, lastErr)
		}
		return ErrNotFound
	}
	// Decided: converge the remaining holders. The round is waited out
	// and its errors ignored — a down holder keeps an orphan chunk, but a
	// sub-K remnant can never decode, and the scrubber purges it.
	var buf roundBuf
	rest := roundOps(&buf, n-1)
	for i, addr := range placement {
		if i != decided {
			rest = append(rest, subOp{addr: addr, req: wire.BatchReq{
				Op: wire.OpDelete, Key: chunkKeys[i], Meta: wire.ECMeta{Stripe: expect},
			}})
		}
	}
	b.send(rest, epoch)
	b.release()
	return nil
}

// hybridStrategy is the paper's future-work policy: replicate small
// values (replication reads are one cheap round trip), erasure-code
// large ones (where EC's bandwidth and memory savings dominate).
type hybridStrategy struct {
	rep       *repStrategy
	ec        *ecStrategy
	threshold int
}

var _ strategy = (*hybridStrategy)(nil)

// set for the hybrid policy: writes partition by the size threshold
// into one replicated and one erasure-coded write. After a key's write
// lands, its OTHER representation is purged: a previous write of the
// key may have been on the far side of the threshold, and its leftovers
// would shadow this value on the rep-first read path or fail
// verification forever. The purge is best-effort — the new value is
// already durable, and the anti-entropy scrubber converges whatever a
// down holder makes this miss — but it must run AFTER the write
// succeeds, never before: purging first and then failing the write
// would lose the old value without installing the new one.
func (h *hybridStrategy) set(b *batcher, writes []write) []result {
	isSmall := func(w write) bool { return len(w.value) < h.threshold }
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
		other.del(b, purge)
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
	if len(value) < h.threshold {
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
		r := h.set(b, []write{{key: key, value: value, ttl: ttl, patch: true}})[0]
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

// del for the hybrid policy. The write-side form is unknown, so delete
// both. A real failure on either side must surface even when the other
// side succeeded: swallowing it would leave the value resurrectable
// through the failed form. Only authoritative not-found is ignorable,
// and it is the verdict only when both sides agree.
func (h *hybridStrategy) del(b *batcher, keys []string) []result {
	out := h.rep.del(b, keys)
	for i, ec := range h.ec.del(b, keys) {
		rep := out[i].err
		switch {
		case rep != nil && !errors.Is(rep, ErrNotFound):
		case ec.err != nil && !errors.Is(ec.err, ErrNotFound):
			out[i].err = ec.err
		case rep != nil && ec.err != nil:
			out[i].err = ErrNotFound
		default:
			out[i].err = nil
		}
	}
	return out
}

// compareDelete for the hybrid policy: the live representation is
// unknown at delete time, so probe in the read path's order — the
// replicated form decides when it holds the key; an authoritative
// rep-side miss falls through to the erasure-coded conditional delete.
// After a rep-side decision the EC form is purged best-effort, exactly
// as a hybrid set purges the other representation. Any other rep-side
// outcome (conflict, unavailability) is final: guessing against an
// unreachable form could delete a value whose version no longer
// matches.
func (h *hybridStrategy) compareDelete(b *batcher, key string, expect uint64) error {
	repErr := h.rep.compareDelete(b, key, expect)
	switch {
	case repErr == nil:
		h.ec.del(b, []string{key})
		return nil
	case errors.Is(repErr, ErrNotFound):
		return h.ec.compareDelete(b, key, expect)
	default:
		return repErr
	}
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
