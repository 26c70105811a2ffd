package core

import (
	"errors"
	"fmt"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/nearcache"
	"ecstore/internal/wire"
)

// Delta-encoded EC overwrites (DESIGN §14). RS-Vandermonde is linear,
// so encode(new) = encode(old) XOR encode(new XOR old): when the client
// knows the exact old value (and the stripe version it was written at),
// an overwrite can ship K+M tiny sparse patches instead of re-striping
// the whole value. Every patch applies under a version-conditional
// check against the base stripe, so the path degrades to the full
// re-stripe on any disagreement instead of ever blending two writes.

// errDeltaFallback is the internal sentinel the delta path returns when
// the overwrite should take the full re-stripe path instead. It never
// escapes to callers.
var errDeltaFallback = errors.New("core: delta write not applicable")

// deltaFallbackReasons labels the per-reason fallback counters:
//
//	no-base    – the near cache holds no value for the key
//	stale-base – cached version differs from the CAS token, so a patch
//	             against it would be conditioned on the wrong stripe
//	resize     – old and new values have different shard layouts
//	oversized  – patch bytes >= ~50% of the value; re-striping is cheaper
//	conflict   – a holder's chunk moved past the base version mid-write
//	missing    – a holder lost its chunk (a delta cannot re-materialise)
//	error      – transport failure mid-delta
var deltaFallbackReasons = []string{
	"no-base", "stale-base", "resize", "oversized", "conflict", "missing", "error",
}

// deltaMaxPatchFraction caps the patch size at value/deltaMaxPatchFraction;
// beyond it the full re-stripe is within a small factor of the patch
// anyway and skips the version-conditional round's conflict surface.
const deltaMaxPatchFraction = 2

func (e *ecStrategy) deltaFallback(reason string) (uint64, error) {
	e.c.mDeltaFallback.Inc()
	if ctr, ok := e.c.mDeltaReasons[reason]; ok {
		ctr.Inc()
	}
	return 0, errDeltaFallback
}

// trySetDelta attempts the delta overwrite for a Set or a Cas (w.cas,
// w.expect the caller's token). It returns
// errDeltaFallback when the full re-stripe path should run instead;
// any other return is the operation's final outcome.
//
// The base is the near cache's value for the key (version-stamped by
// DESIGN §11) and nothing else: a key the client holds no base for —
// a fresh key, or any key of a cache-less client — goes straight to the
// one round of full chunk writes, never a read to find one (§14). A
// client that can never take the path does not count its fallbacks.
//
// The wire round sends one OpApplyDelta per chunk holder, conditioned
// on the base stripe. Outcomes:
//
//   - every holder patched: the write is complete — the patched chunks
//     are byte-identical to a full re-encode of the new value.
//   - any holder answered Exists (its chunk moved past the base): the
//     round lost a race. Committed patches are rolled back by applying
//     the SAME patch conditioned on the new stripe — XOR is its own
//     inverse — then a Cas reports ErrCASConflict (the holder's answer
//     is authoritative: its version differed from the token) and a Set
//     falls back to the unconditional full re-stripe.
//   - any holder answered NotFound (chunk lost): a delta cannot
//     re-materialise a chunk, so roll back and fall back to the full
//     path, which can.
//   - transport failure: roll back whatever may have landed and fall
//     back (Set) or report the failure (Cas — mirroring the full
//     conditional path, which fails rather than silently retries once
//     chunk writes have been issued).
//
// The rollback is best-effort with the same exposure as the full
// path's stripe-conditional delete unwind: a holder that stays down
// keeps a sub-K orphan that can never decode and that the scrubber
// heals from parity.
func (e *ecStrategy) trySetDelta(b *batcher, w write) (uint64, error) {
	c, key, value := e.c, w.key, w.value
	if !c.deltaCapable() {
		return 0, errDeltaFallback
	}
	base, ok := c.cache.Get(key)
	if !ok || base.Version == 0 {
		return e.deltaFallback("no-base")
	}
	if w.cas && base.Version != w.expect {
		return e.deltaFallback("stale-base")
	}

	start := time.Now()
	ps, err := erasure.EncodeDelta(e.code, base.Data, value, nil)
	if err != nil {
		return e.deltaFallback("resize")
	}
	defer ps.Release()
	n := e.k + e.m
	per := len(ps.Shards[0])
	runs := make([][]wire.DeltaRun, n)
	patchBytes := 0
	for i, shard := range ps.Shards {
		rr := erasure.NonzeroRuns(shard, 0)
		wrr := make([]wire.DeltaRun, len(rr))
		for j, r := range rr {
			wrr[j] = wire.DeltaRun{Offset: uint32(r.Offset), Data: r.Data}
		}
		runs[i] = wrr
		patchBytes += wire.DeltaPatchSize(wrr)
	}
	if patchBytes*deltaMaxPatchFraction >= len(value) {
		return e.deltaFallback("oversized")
	}
	placement, epoch := c.placement(key, n)
	if placement == nil {
		return e.deltaFallback("error")
	}
	meta := wire.ECMeta{
		K:        uint8(e.k),
		M:        uint8(e.m),
		TotalLen: uint32(len(value)),
		Stripe:   wire.NewStripeID(),
	}
	// One round: a patch per chunk holder, each conditional on the base
	// stripe. OpApplyDelta is not batchable, so every patch rides in its
	// own frame, which takes over the patch's lease.
	var buf roundBuf
	ops := e.deltaRound(roundOps(&buf, n), key, placement, runs, per, wire.TTLSeconds(w.ttl), base.Version, meta)
	b.code += time.Since(start)
	b.send(ops, epoch)
	conflicts, missing := 0, 0
	var firstErr error
	for i := range ops {
		switch err := ops[i].fail(); {
		case err == nil:
		case errors.Is(err, wire.ErrExists):
			conflicts++
		case errors.Is(err, wire.ErrNotFound):
			missing++
		case firstErr == nil:
			firstErr = fmt.Errorf("chunk %d delta write: %w", i, err)
		}
	}
	b.release()

	if conflicts == 0 && missing == 0 && firstErr == nil {
		full := int64(n) * int64(wire.ChunkPayloadOverhead+per)
		c.mDeltaWrites.Inc()
		c.mDeltaSaved.Add(full - int64(patchBytes))
		c.mECWriteBytes.Add(int64(patchBytes))
		c.hDeltaPatch.Record(time.Duration(patchBytes))
		return meta.Stripe, nil
	}

	e.unwindDelta(b, key, placement, runs, per, base, meta, epoch)
	switch {
	case conflicts > 0 && w.cas:
		return 0, ErrCASConflict
	case conflicts > 0:
		return e.deltaFallback("conflict")
	case missing > 0:
		return e.deltaFallback("missing")
	case w.cas:
		return 0, firstErr
	default:
		return e.deltaFallback("error")
	}
}

// unwindDelta rolls a partially applied delta round back by re-sending
// the SAME patches conditioned on the new stripe: XOR is self-inverse,
// so a holder that committed the patch is restored to the exact base
// chunk (bytes, stripe ID, CRC and all), while a holder that never
// committed answers Exists/NotFound and is untouched. This is why a
// torn delta round can never strand a mixed stripe: every chunk is
// either the base or rolled back to it, and sub-K leftovers of the new
// stripe can never decode.
//
// A delete-based unwind would be UNSAFE here: with j new-stripe chunks
// committed, M < j < K+M-x deletes could leave NEITHER stripe with K
// chunks — the inverse patch restores instead of removing.
func (e *ecStrategy) unwindDelta(b *batcher, key string, placement []string, runs [][]wire.DeltaRun, shardLen int, base nearcache.Value, meta wire.ECMeta, epoch uint64) {
	e.c.mUnwinds.Inc()
	inv := wire.ECMeta{
		K:        meta.K,
		M:        meta.M,
		TotalLen: uint32(len(base.Data)),
		Stripe:   base.Version,
	}
	var buf roundBuf
	// Only chunks that committed the delta (Compare = the new stripe)
	// roll back.
	ops := e.deltaRound(roundOps(&buf, len(placement)), key, placement, runs, shardLen, base.TTL, meta.Stripe, inv)
	// Same budget as unwindStripes: half a deadline keeps the whole
	// write within the documented 2x OpTimeout bound.
	b.sendWithin(ops, epoch, e.c.cfg.OpTimeout/2)
	b.release()
}

// deltaRound appends one OpApplyDelta per chunk holder to ops: chunk
// i's runs as a patch leased from the frame pool, conditional on the
// holder's chunk being at stripe compare, installing meta (with the
// chunk's index).
func (e *ecStrategy) deltaRound(ops []subOp, key string, placement []string, runs [][]wire.DeltaRun, shardLen int, ttl uint32, compare uint64, meta wire.ECMeta) []subOp {
	fp := e.c.pool.FramePool()
	var keyBuf [8]string
	keys := wire.AppendChunkKeys(keyBuf[:0], key, 0, len(placement))
	for i, addr := range placement {
		meta.ChunkIndex = uint8(i)
		ops = append(ops, subOp{addr: addr, leased: true, req: wire.BatchReq{
			Op:         wire.OpApplyDelta,
			Key:        keys[i],
			Value:      wire.EncodeDeltaPatchPooled(fp, uint32(shardLen), runs[i]),
			TTLSeconds: ttl,
			Compare:    compare,
			Meta:       meta,
		}})
	}
	return ops
}

// recordDeltaBase re-installs the value a successful Set/Cas just
// wrote as the key's near-cache entry, stamped with the new version.
// The write-side invalidate has already run (it must: a failed or
// conflicted write leaves the cached value unknown), so this is a
// fresh fill under a fresh generation — and it is what lets the NEXT
// overwrite of a hot key find a same-version base and take the delta
// path, instead of only overwrites that follow a read. Gated on the
// delta path being live: without it the refresh would spend cache
// space on write-heavy keys for no benefit. value is the writer's, who
// may reuse it once the write returns, so the cache adopts a copy — the
// one copy on the way into the cache (nearcache's lease discipline).
func (c *Client) recordDeltaBase(key string, value []byte, version uint64, ttl time.Duration) {
	if version == 0 || !c.deltaCapable() {
		return
	}
	c.cache.Put(key, nearcache.Value{
		Data:    append([]byte(nil), value...),
		Version: version,
		TTL:     wire.TTLSeconds(ttl),
	}, c.cache.Begin(key))
}

// deltaCapable reports whether this client can ever take the delta
// overwrite path: the near cache must exist to hold base values, and the
// resilience mode must have an erasure-coded write path. A cache-less
// client always re-stripes.
func (c *Client) deltaCapable() bool {
	if c.cache == nil {
		return false
	}
	switch c.cfg.Resilience {
	case ResilienceErasure, ResilienceHybrid:
		return true
	default:
		return false
	}
}
