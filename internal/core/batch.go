package core

import (
	"errors"
	"fmt"
	"time"

	"ecstore/internal/nearcache"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// subOp is one planned sub-operation of a strategy round: where it
// goes, what it asks, and — after the round — what came back. The
// strategies build a slice of sub-ops, hand it to the batcher, and read
// the results out of the same slice. The executor never keeps the
// slice, so a round of a few sub-ops lives on its strategy's stack
// (roundOps).
type subOp struct {
	addr string
	// key is the position, in the strategy call's key slice, of the key
	// this sub-op serves; results are collected by position, never by
	// key string.
	key int
	req wire.BatchReq

	// rawChunk marks req.Value as a bare erasure-coded chunk that goes on
	// the wire wrapped in its chunk payload (header + CRC, from req.Meta).
	// The executor wraps it as it issues the frame — into a frame-pool
	// lease it hands to the connection with a plain frame, or copies into
	// the batch payload and returns — so chunk i is on its way while
	// chunk i+1 is still being checksummed, and no payload outlives its
	// frame. The chunk itself must stay valid until the round is over (a
	// bisected batch wraps it again).
	rawChunk bool

	// resp is the sub-response when err is nil; err is the
	// transport-level failure (server down, timeout, malformed frame)
	// that prevented any authoritative answer. Status-level outcomes
	// (NotFound, Exists, per-sub errors) live in resp.Status.
	// resp.Value aliases a pooled frame body the batcher holds until
	// release: copy out whatever outlives the round.
	resp wire.BatchResp
	err  error

	// next chains the sub-ops sharing one frame (-1 ends the chain);
	// planned marks a sub-op already placed in a frame of this round;
	// call, on the first sub-op of a frame, is that frame's call slot.
	next    int
	planned bool
	call    *rpc.Call
}

// roundBuf is the stack room a strategy gives a round: one key's K+M
// sub-ops at the usual geometries.
type roundBuf [8]subOp

// roundOps returns an empty sub-op slice with room for n: buf itself —
// an array on the caller's stack, so a round of a few sub-ops allocates
// nothing — or a heap slice for a round that does not fit.
func roundOps(buf *roundBuf, n int) []subOp {
	if n > len(buf) {
		return make([]subOp, 0, n)
	}
	return buf[:0]
}

// encodedSize is the exact bytes the sub-op adds to a batch payload.
func (op *subOp) encodedSize() int {
	if op.rawChunk {
		return op.req.EncodedSizeWith(len(op.req.Value) + wire.ChunkPayloadOverhead)
	}
	return op.req.EncodedSize()
}

// fail returns the sub-op's failure: the transport error when the
// frame never completed, else the wire status mapped through the same
// table Response.Err uses (nil for StatusOK).
func (op *subOp) fail() error {
	if op.err != nil {
		return op.err
	}
	return op.resp.Err()
}

// batcher is the executor every operation's wire rounds go through,
// single-key, bulk and admin alike, and the per-operation ledger beside it:
// the Figure 9 phase times (issue = request, wait-all = wait-response,
// plus the encode/decode time the modes add), the frame and sub-op
// counts, and the pooled responses the current round's results alias.
// One batcher serves one logical operation across however many rounds
// its strategy needs (failover walks, parity rounds, unwinds, purges).
//
// Executor rules: every frame of a round is issued before any is
// waited on, all on the calling goroutine, which then parks once for
// the whole round under the round's one deadline; a frame that would
// carry exactly one sub-op is sent as that op's plain frame (no batch
// wrapper), anything larger as one OpBatch per server within the
// size/count budget; response bodies stay leased until release; a
// whole-frame rejection is retried by bisection.
//
// The batcher also owns the memory its calls run in: one call slot per
// frame, and the rpc round for as long as the operation runs. A slot
// serves one call only (rpc.Call says why), so slots are handed out and
// never taken back, and the batcher itself is an ordinary allocation
// per operation — never pooled, or a response arriving late could land
// in another operation's call. The round is different: nothing late
// touches it (DESIGN §5b), so begin draws it from the client's pool and
// end gives it back, and the deadline timer it armed serves the next
// operation too.
type batcher struct {
	c     *Client
	om    *opMetrics // the calling op's metrics, set by begin
	start time.Time

	// bulk is set by the M* entry points: their frames and sub-ops feed
	// the ecstore_client_bulk_* series. Single-key ops leave it unset.
	bulk           bool
	frames, subops int64

	request, wait, code time.Duration

	// The round in progress: its epoch, its deadline, and the rpc round
	// its frames are calls of.
	epoch   uint64
	timeout time.Duration
	round   *rpc.Round

	leases []*wire.Response
	free   []rpc.Call // call slots not handed out yet

	// Backing for leases and slots while they are few: one key's rounds
	// take K+M of each at most, and should not pay an allocation apiece.
	leaseBuf [8]*wire.Response
	slotBuf  [8]rpc.Call

	// Backing for a one-key client-decode read (gatherGet): its result,
	// its chunk state, its placement and its chunk keys. Every gatherGet
	// of the operation reuses them, so a result it returned is valid
	// until the next one.
	getBuf      [1]result
	gatherBuf   [1]gather
	holderBuf   [8]string
	chunkKeyBuf [8]string

	// Backing for a one-key Get's miss (getOp): its key and result. The
	// failover walk borrows holderBuf for its orders when they fit.
	readKey [1]string
	readRes [1]nearcache.Result

	// kept is each key's stripe that an epoch split left in place
	// (stripeSet): the operation's retry writes it again.
	kept map[string]uint64
}

// begin opens the batcher of one operation, labelled op: timed from
// here, so the ARPE window wait is not charged to the op.
func (c *Client) begin(op string) *batcher {
	b := &batcher{c: c, om: c.ops[op], start: time.Now(), round: c.rounds.Get().(*rpc.Round)}
	b.leases, b.free = b.leaseBuf[:0], b.slotBuf[:]
	return b
}

// slot hands out a fresh call slot: from the batcher's own array while
// it lasts, then from heap chunks (a slot must not move while its call
// is in flight, so the supply grows by whole chunks, never by append).
func (b *batcher) slot() *rpc.Call {
	if len(b.free) == 0 {
		b.free = make([]rpc.Call, len(b.slotBuf))
	}
	c := &b.free[0]
	b.free = b.free[1:]
	return c
}

// batchBytesBudget bounds one OpBatch frame's encoded payload; batches
// that would exceed it are split (and a single sub-op too large to
// wrap at all goes as a plain frame, which has no batch overhead).
const batchBytesBudget = wire.MaxValueLen

// send executes one round under the client's operation deadline. All
// sub-ops of a round come from ONE view snapshot, whose epoch rides on
// every frame so a server whose ring differs rejects it with
// WrongEpoch.
func (b *batcher) send(ops []subOp, epoch uint64) {
	b.sendWithin(ops, epoch, b.c.cfg.OpTimeout)
}

// sendWithin groups ops by target server, issues every frame, waits
// once for all of them and fills the results in place — the round costs
// one round trip to the slowest server, not a sum, and one wake-up, not
// one per frame. timeout bounds the round from its first frame: a frame
// issued late gets what is left.
func (b *batcher) sendWithin(ops []subOp, epoch uint64, timeout time.Duration) {
	if len(ops) == 0 {
		return
	}
	start := time.Now()
	b.epoch, b.timeout = epoch, timeout
	b.c.pool.BeginTimeout(b.round, timeout)
	for i := range ops {
		if !ops[i].planned {
			b.issueServer(ops, i)
		}
	}
	issued := time.Now()
	b.round.Wait()
	for i := range ops {
		if ops[i].call != nil {
			b.collect(ops, i)
		}
	}
	b.request += issued.Sub(start)
	b.wait += time.Since(issued)
	b.subops += int64(len(ops))
}

// issueServer plans every not-yet-planned sub-op bound for ops[i]'s
// server into frames and issues them, so multiple frames to one server
// pipeline. Grouping is a scan per distinct server — rounds address a
// handful of servers, and a scan allocates nothing.
func (b *batcher) issueServer(ops []subOp, i int) {
	addr := ops[i].addr
	first, last, n, size := -1, -1, 0, wire.BatchOverhead
	for j := i; j < len(ops); j++ {
		op := &ops[j]
		if op.planned || op.addr != addr {
			continue
		}
		op.planned, op.next = true, -1
		esz := op.encodedSize()
		if !op.req.Op.Batchable() || wire.BatchOverhead+esz > batchBytesBudget {
			// Not batchable (or too large to wrap): its own frame,
			// issued now so it pipelines with the batch frames.
			b.issueFrame(ops, j, 1)
			continue
		}
		if n >= wire.MaxBatchOps || size+esz > batchBytesBudget {
			b.issueFrame(ops, first, n)
			first, n, size = -1, 0, wire.BatchOverhead
		}
		if first < 0 {
			first = j
		} else {
			ops[last].next = j
		}
		last = j
		n++
		size += esz
	}
	if n > 0 {
		b.issueFrame(ops, first, n)
	}
}

// issueFrame sends the n sub-ops chained from ops[first] as one frame —
// the sub-op's own plain frame when n is one, an OpBatch otherwise — as
// a call of the round in progress, and leaves its slot on ops[first]
// for collect. A payload that cannot be built marks every sub-op failed
// instead; a send that fails is the call's outcome.
func (b *batcher) issueFrame(ops []subOp, first, n int) {
	op := &ops[first]
	fp := b.c.pool.FramePool()
	req := &wire.Request{Epoch: b.epoch}
	if n == 1 {
		req.Op, req.Key, req.Value = op.req.Op, op.req.Key, op.req.Value
		req.TTLSeconds, req.Compare, req.Meta = op.req.TTLSeconds, op.req.Compare, op.req.Meta
		if op.rawChunk {
			req.Value, req.ValuePool = wire.EncodeChunkPayloadPooled(fp, op.req.Meta, op.req.Value), fp
		}
	} else {
		// On the stack while the frame has at most 16 sub-ops: the
		// encoder keeps no reference to the list.
		var subs [16]wire.BatchReq
		reqs := subs[:0]
		size := wire.BatchOverhead
		for i := first; i >= 0; i = ops[i].next {
			r := ops[i].req
			if ops[i].rawChunk {
				r.Value = wire.EncodeChunkPayloadPooled(fp, r.Meta, r.Value)
			}
			reqs = append(reqs, r)
			size += r.EncodedSize()
		}
		// The payload is leased from the frame pool at its final size
		// and handed over with the request.
		var buf []byte
		if fp != nil {
			buf = fp.GetRaw(size)[:0]
		}
		payload, err := wire.AppendBatchRequests(buf, reqs)
		if fp != nil {
			for i, j := first, 0; i >= 0; i, j = ops[i].next, j+1 {
				if ops[i].rawChunk {
					fp.Put(reqs[j].Value) // copied into the batch payload
				}
			}
		}
		if err != nil {
			if fp != nil {
				fp.Put(buf[:cap(buf)][:0])
			}
			failChain(ops, first, err)
			return
		}
		req.Op, req.Key, req.Value, req.ValuePool = wire.OpBatch, "batch", payload, fp
	}
	op.call = b.slot()
	if b.round.Issue(op.call, op.addr, req) { // else never framed; collect reads why from the slot
		b.frames++
	}
}

// failChain marks every sub-op chained from ops[first] failed with err.
func failChain(ops []subOp, first int, err error) {
	for i := first; i >= 0; i = ops[i].next {
		ops[i].err = err
	}
}

// collect reads the outcome of the frame issued from ops[first], once
// its round has been waited out, and distributes its sub-responses,
// which alias the pooled body until release. A whole-frame status error
// on a batch — the batch itself was rejected, or its aggregate response
// outgrew the frame — is retried by bisection: the halves re-send as
// smaller frames, down to plain ones, each a round of its own.
// Re-sending is safe: batch rejection means no sub-op executed, and a
// response-overflow re-send repeats idempotent reads or re-applies the
// same versioned writes.
func (b *batcher) collect(ops []subOp, first int) {
	resp, err := ops[first].call.Result()
	ops[first].call = nil
	if err != nil {
		failChain(ops, first, err)
		return
	}
	if ops[first].next < 0 { // a frame of one is that op's plain frame
		ops[first].resp = wire.BatchResp{
			Status: resp.Status, Value: resp.Value, TTLSeconds: resp.TTLSeconds, Meta: resp.Meta,
		}
		b.hold(resp)
		return
	}
	n := 0
	for i := first; i >= 0; i = ops[i].next {
		n++
	}
	if respErr := resp.Err(); respErr != nil {
		resp.Release()
		if errors.Is(respErr, wire.ErrWrongEpoch) {
			// A membership rejection applies to every sub-op of the frame
			// — they share one placement snapshot — so report it directly;
			// bisecting would only repeat the same rejection.
			for i := first; i >= 0; i = ops[i].next {
				ops[i].resp = wire.BatchResp{Status: wire.StatusWrongEpoch}
			}
			return
		}
		// Cut the chain in two and re-send each half synchronously, as a
		// round of its own (the round that carried the whole is over).
		mid := first
		for i := 1; i < n/2; i++ {
			mid = ops[mid].next
		}
		second := ops[mid].next
		ops[mid].next = -1
		for _, half := range [2][2]int{{first, n / 2}, {second, n - n/2}} {
			b.c.pool.BeginTimeout(b.round, b.timeout)
			b.issueFrame(ops, half[0], half[1])
			b.round.Wait()
			if ops[half[0]].call != nil {
				b.collect(ops, half[0])
			}
		}
		return
	}
	rs, derr := wire.DecodeBatchResponses(resp.Value)
	if derr == nil && len(rs) != n {
		derr = fmt.Errorf("%w: batch answered %d of %d sub-requests", wire.ErrMalformed, len(rs), n)
	}
	if derr != nil {
		resp.Release()
		failChain(ops, first, derr)
		return
	}
	for i, j := first, 0; i >= 0; i, j = ops[i].next, j+1 {
		ops[i].resp = rs[j]
	}
	b.hold(resp)
}

// hold keeps a response whose body sub-results alias until release; a
// bodiless one (a write's ack) goes back at once.
func (b *batcher) hold(resp *wire.Response) {
	if len(resp.Value) == 0 {
		resp.Release()
		return
	}
	b.leases = append(b.leases, resp)
}

// release returns the held response bodies to the frame pool. The
// strategies call it once a round's results are classified and every
// value that outlives the round is copied (or Joined) out.
func (b *batcher) release() {
	for i, resp := range b.leases {
		resp.Release()
		b.leases[i] = nil
	}
	b.leases = b.leases[:0]
}

// end closes the operation's ledger with its outcome, which it passes
// through: the round back to the client's pool (every round of the
// operation has been waited out), the accumulated phase times under the
// op's label (a phase the op never entered records nothing), an M*
// call's frame and sub-op counts to the bulk counters, then the
// end-to-end latency and the total and error counters.
func (b *batcher) end(v Item, err error) (Item, error) {
	c := b.c
	c.rounds.Put(b.round)
	b.round = nil
	for _, ph := range [...]struct {
		name string
		d    time.Duration
	}{{phaseCode, b.code}, {phaseRequest, b.request}, {phaseWait, b.wait}} {
		if ph.d > 0 {
			b.om.phases[ph.name].Record(ph.d)
		}
	}
	if b.bulk {
		c.mBulkFrames.Add(b.frames)
		c.mBulkSubops.Add(b.subops)
	}
	b.om.done(b.start, err)
	return v, err
}
