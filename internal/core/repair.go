package core

import (
	"bytes"
	"errors"
	"fmt"

	"ecstore/internal/erasure"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// RepairReport describes what Repair did for one key.
type RepairReport struct {
	// Checked is the number of chunk/replica locations probed.
	Checked int
	// Missing is how many were absent or unreachable before repair.
	Missing int
	// Rewritten is how many were restored.
	Rewritten int
	// BytesMoved is the payload volume of the rewrites that landed —
	// the migration scheduler sums it into its traffic accounting.
	BytesMoved int64
}

// Healthy reports whether the key had full redundancy already.
func (r RepairReport) Healthy() bool { return r.Missing == 0 }

// String renders the report on one line.
func (r RepairReport) String() string {
	return fmt.Sprintf("checked=%d missing=%d rewritten=%d bytes=%d", r.Checked, r.Missing, r.Rewritten, r.BytesMoved)
}

// repairer is implemented by strategies that can restore redundancy.
type repairer interface {
	repair(key string) (RepairReport, error)
}

// Repair restores full redundancy for key: it probes every chunk or
// replica location, reconstructs lost chunks from the survivors (or
// re-reads the value from a live replica), and rewrites whatever is
// missing. It addresses the paper's future-work item of recovering
// redundancy after node failures — a crashed-and-restarted server
// comes back empty, leaving stripes degraded until repaired.
//
// Repair returns ErrUnavailable when too few chunks survive to
// reconstruct, and ErrNotFound when no trace of the key exists.
func (c *Client) Repair(key string) (RepairReport, error) {
	r, ok := c.strat.(repairer)
	if !ok {
		return RepairReport{}, fmt.Errorf("core: resilience mode %v does not support repair", c.cfg.Resilience)
	}
	// The strategies bail out with wire.ErrWrongEpoch before any rewrite
	// lands on a stale ring; adopt the newer view and re-resolve, the
	// same transparent retry every data-path operation gets.
	return epochRetry(c, func() (RepairReport, error) { return r.repair(key) })
}

// IRepair is the non-blocking form of Repair; the Future's value is
// nil and its error is the repair error.
func (c *Client) IRepair(key string) *Future {
	return c.submit(func() (Item, error) {
		_, err := c.Repair(key)
		return Item{}, err
	})
}

// repair for replication: find a live copy, then rewrite the replicas
// that are missing — absent, unreachable, or diverged. Divergence is
// real under async replication torn by a crash: two holders answer
// with different bytes, and only a rewrite reconverges them. The first
// reachable holder in placement order is authoritative, matching the
// read path, so repair makes durable exactly what reads observe.
func (r *repStrategy) repair(key string) (RepairReport, error) {
	placement, epoch := r.c.placement(key, r.replicas)
	placement = distinct(placement)
	if placement == nil {
		return RepairReport{}, ErrUnavailable
	}
	report := RepairReport{Checked: len(placement)}
	var value []byte
	var version uint64
	found := false
	notFound := 0
	missing := make([]string, 0, len(placement))
	for _, addr := range placement {
		resp, err := r.c.pool.Roundtrip(addr, &wire.Request{Op: wire.OpGet, Key: key, Epoch: epoch})
		if err == nil {
			if !found {
				// value outlives the pooled response body (it feeds the
				// rewrites below): copy it out before releasing.
				value = append([]byte(nil), resp.Value...)
				version = resp.Meta.Stripe
				found = true
				resp.Release()
				continue
			}
			diverged := !bytes.Equal(resp.Value, value)
			resp.Release()
			if diverged {
				missing = append(missing, addr) // diverged: rewrite below
			}
			continue
		}
		resp.Release()
		if errors.Is(err, wire.ErrWrongEpoch) {
			// Stale placement snapshot: let the caller's epoch-retry
			// layer refresh the view and re-resolve, rather than
			// rewriting against the wrong ring.
			return report, err
		}
		if errors.Is(err, wire.ErrNotFound) {
			notFound++
		}
		missing = append(missing, addr)
	}
	report.Missing = len(missing)
	if !found {
		if notFound == len(placement) {
			// Every location is live and authoritatively empty.
			return report, ErrNotFound
		}
		return report, fmt.Errorf("%w: no live replica of %q", ErrUnavailable, key)
	}
	// The rewrites carry the authoritative copy's version so the
	// reconverged replicas agree on the CAS token too. They go out as
	// one batched round — one frame per distinct holder — through the
	// same executor every operation uses; a holder still down just stays
	// unrewritten (partial repair).
	rewrites := make([]subOp, len(missing))
	for i, addr := range missing {
		rewrites[i] = subOp{addr: addr, req: wire.BatchReq{
			Op: wire.OpSet, Key: key, Value: value,
			Meta: wire.ECMeta{Stripe: version},
		}}
	}
	b := newBatcher(r.c)
	b.send(rewrites, epoch)
	defer b.release()
	for i := range rewrites {
		if rewrites[i].fail() == nil {
			report.Rewritten++
			report.BytesMoved += int64(len(value))
		}
	}
	return report, nil
}

// repair for erasure coding: probe all K+M chunk locations,
// reconstruct the lost chunks from any K survivors, and rewrite them.
func (e *ecStrategy) repair(key string) (RepairReport, error) {
	n := e.k + e.m
	placement, epoch := e.c.placement(key, n)
	if placement == nil {
		return RepairReport{}, ErrUnavailable
	}
	report := RepairReport{Checked: n}

	collector := wire.NewChunkCollector(e.k, n)
	// Collected chunks alias pooled response bodies; the leases are
	// held through reconstruction and the rewrites (whose payload
	// encoding copies the chunk bytes), then returned.
	var retained []*wire.Response
	defer func() {
		for _, r := range retained {
			r.Release()
		}
	}()
	notFound, reached := 0, 0
	wrongEpoch := false
	calls := make(map[int]*rpc.Call, n)
	for i := 0; i < n; i++ {
		call, err := e.c.pool.Send(placement[i], &wire.Request{
			Op: wire.OpGetChunk, Key: wire.ChunkKey(key, i), Epoch: epoch,
		})
		if err != nil {
			continue
		}
		calls[i] = call
	}
	for _, call := range calls {
		resp, err := call.Wait()
		if err != nil {
			continue
		}
		reached++ // the holder is alive and answered authoritatively
		if respErr := resp.Err(); respErr != nil {
			resp.Release()
			switch {
			case errors.Is(respErr, wire.ErrWrongEpoch):
				wrongEpoch = true
			case errors.Is(respErr, wire.ErrNotFound):
				notFound++
			}
			continue
		}
		m, chunk, err := wire.DecodeChunkPayload(resp.Value)
		if err != nil {
			resp.Release()
			continue // corrupt chunk: rebuild it below
		}
		collector.Add(m, chunk, resp.TTLSeconds)
		retained = append(retained, resp)
	}
	if wrongEpoch {
		// Stale placement snapshot: bail out so the caller's epoch-retry
		// layer re-resolves before any rewrite lands on the wrong ring.
		return report, wire.ErrWrongEpoch
	}
	win := collector.Best()
	if win == nil {
		if collector.Seen() == 0 && notFound == n {
			return report, ErrNotFound
		}
		if reached == n {
			// Every chunk holder is alive and answered, yet no stripe
			// retains K chunks: the value is irrecoverably lost (more
			// than M holders crashed empty before a repair could run).
			// Leaving the orphan chunks behind would make every future
			// read and every scrub cycle fail on a value that cannot
			// come back, so treat this as authoritative loss: purge the
			// remnants and report a clean miss.
			if err := e.del(newBatcher(e.c), []string{key})[0].err; err != nil && !errors.Is(err, ErrNotFound) {
				return report, err
			}
			return report, ErrNotFound
		}
		if collector.Seen() == 0 {
			return report, ErrUnavailable
		}
		return report, fmt.Errorf("%w: no stripe of %q has %d chunks", ErrUnavailable, key, e.k)
	}
	// Everything not holding the winning stripe's chunk — lost,
	// corrupt, or from a superseded write — gets rewritten.
	chunks := win.Chunks
	missing := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if chunks[i] == nil {
			missing = append(missing, i)
		}
	}
	report.Missing = len(missing)
	if report.Missing == 0 {
		return report, nil
	}
	if err := e.code.Reconstruct(chunks); err != nil {
		return report, err
	}
	e.c.mReconstructs.Inc()
	// The rebuilt chunks were drawn from the shared shard pool; the
	// rewrites below copy them into their payloads, so hand them back
	// once every write has completed. Surviving chunks are network-owned and are
	// left to the garbage collector.
	defer func() {
		for _, i := range missing {
			erasure.DefaultPool.Put(chunks[i])
		}
	}()
	// Chunk rewrites go out as one batched round — one frame per chunk
	// holder — through the executor, which wraps each rebuilt chunk in
	// its payload as it issues the frame; a holder still down stays
	// unrewritten (partial repair).
	rewrites := make([]subOp, len(missing))
	for j, i := range missing {
		rewrites[j] = subOp{addr: placement[i], rawChunk: true, req: wire.BatchReq{
			Op:    wire.OpSetChunk,
			Key:   wire.ChunkKey(key, i),
			Value: chunks[i],
			Meta: wire.ECMeta{
				ChunkIndex: uint8(i),
				K:          uint8(e.k),
				M:          uint8(e.m),
				TotalLen:   win.TotalLen,
				Stripe:     win.Stripe,
			},
		}}
	}
	b := newBatcher(e.c)
	b.send(rewrites, epoch)
	defer b.release()
	for j := range rewrites {
		if rewrites[j].fail() == nil {
			report.Rewritten++
			report.BytesMoved += int64(len(rewrites[j].req.Value))
		}
	}
	return report, nil
}

// Verify scrubs one key's redundancy. For erasure-coded values it
// fetches every chunk and checks that the stored parity is consistent
// with the data chunks, detecting silent corruption (not just loss);
// it returns true when all K+M chunks are present and consistent. For
// replicated values it checks that every replica location holds a
// byte-identical copy — there is no parity, but a missing or diverged
// replica is exactly what the anti-entropy scrubber must catch before
// the next failure makes it data loss.
func (c *Client) Verify(key string) (bool, error) {
	v, ok := c.strat.(verifier)
	if !ok {
		return false, fmt.Errorf("core: resilience mode %v does not support verify", c.cfg.Resilience)
	}
	return epochRetry(c, func() (bool, error) { return v.verify(key) })
}

// verifier is implemented by strategies that can attest full
// redundancy of a key.
type verifier interface {
	verify(key string) (bool, error)
}

// verify for replication: all replica locations must answer with
// byte-identical copies. An unreachable holder means full redundancy
// cannot be attested (false, nil — the repair decision is the
// caller's); a holder that answers not-found while another holds the
// value is a lost replica (false, nil); all holders answering
// not-found is an authoritative miss.
func (r *repStrategy) verify(key string) (bool, error) {
	placement, epoch := r.c.placement(key, r.replicas)
	placement = distinct(placement)
	if placement == nil {
		return false, ErrUnavailable
	}
	var ref []byte
	have, notFound := 0, 0
	for _, addr := range placement {
		resp, err := r.c.pool.Roundtrip(addr, &wire.Request{Op: wire.OpGet, Key: key, Epoch: epoch})
		switch {
		case err == nil:
			if have > 0 && !bytes.Equal(resp.Value, ref) {
				resp.Release()
				return false, nil // diverged replicas: needs repair
			}
			// ref is compared against later replicas after this response's
			// lease is returned, so it must own its bytes.
			ref = append(ref[:0], resp.Value...)
			resp.Release()
			have++
		case errors.Is(err, wire.ErrNotFound):
			resp.Release()
			notFound++
		case rpc.IsUnavailable(err):
			resp.Release()
			// Unreachable holder: cannot attest full redundancy.
		default:
			resp.Release()
			return false, err
		}
	}
	if notFound == len(placement) {
		return false, ErrNotFound
	}
	return have == len(placement), nil
}

func (e *ecStrategy) verify(key string) (bool, error) {
	n := e.k + e.m
	placement, epoch := e.c.placement(key, n)
	if placement == nil {
		return false, ErrUnavailable
	}
	chunks := make([][]byte, n)
	stripes := make([]uint64, n)
	// Verified chunks alias pooled response bodies, which must survive
	// until code.Verify has recomputed parity over them.
	var retained []*wire.Response
	defer func() {
		for _, r := range retained {
			r.Release()
		}
	}()
	notFound, have := 0, 0
	for i := 0; i < n; i++ {
		resp, err := e.c.pool.Roundtrip(placement[i], &wire.Request{
			Op: wire.OpGetChunk, Key: wire.ChunkKey(key, i), Epoch: epoch,
		})
		switch {
		case err == nil:
			if m, chunk, derr := wire.DecodeChunkPayload(resp.Value); derr == nil {
				chunks[i] = chunk
				stripes[i] = m.Stripe
				have++
				retained = append(retained, resp)
			} else {
				resp.Release()
			}
		case errors.Is(err, wire.ErrNotFound):
			resp.Release()
			notFound++
		case rpc.IsUnavailable(err):
			resp.Release()
			// Unreachable or hung chunk holder: cannot attest full
			// consistency.
		default:
			resp.Release()
			return false, err
		}
	}
	if notFound == n {
		return false, ErrNotFound
	}
	if have < n {
		return false, nil // incomplete stripe is not verified
	}
	for i := 1; i < n; i++ {
		if stripes[i] != stripes[0] {
			return false, nil // mixed writes: needs repair
		}
	}
	return e.code.Verify(chunks)
}

func (h *hybridStrategy) verify(key string) (bool, error) {
	// Probe both representations. A small value must have its full,
	// byte-identical replica set (a single live replica is NOT healthy;
	// it is one failure away from loss, which is what the scrubber
	// exists to catch); a large one its full consistent stripe. A key
	// with BOTH forms is never healthy: one of them is a stale leftover
	// from a cross-threshold overwrite whose purge did not complete,
	// and repair must resolve it before the stale form can shadow the
	// live one.
	ecOK, ecErr := h.ec.verify(key)
	repOK, repErr := h.rep.verify(key)
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

// repair for the hybrid policy: repair whichever representation
// exists. When both do — a cross-threshold overwrite whose purge of
// the old form did not complete — the replicated form wins, because
// the read path resolves it first: converging on it makes what reads
// already observe durable, while any other choice would flip the
// value reads return.
func (h *hybridStrategy) repair(key string) (RepairReport, error) {
	repReport, repErr := h.rep.repair(key)
	if repErr == nil {
		if err := h.ec.del(newBatcher(h.ec.c), []string{key})[0].err; err != nil && !errors.Is(err, ErrNotFound) {
			// A stale stripe survives on an unreachable holder: report
			// the error so the scrubber retries next cycle.
			return repReport, err
		}
		return repReport, nil
	}
	ecReport, ecErr := h.ec.repair(key)
	if ecErr == nil {
		return ecReport, nil
	}
	if errors.Is(repErr, ErrNotFound) && errors.Is(ecErr, ErrNotFound) {
		return ecReport, ErrNotFound
	}
	return ecReport, ecErr
}
