package server

import (
	"bytes"
	"strings"

	"ecstore/internal/wire"
)

// runsOnWorker is the routing rule of the threading model: whether a
// connection's reader hands req to the worker pool instead of executing
// it itself. Everything that touches only this server (the store ops,
// a batch of them, the ring protocol, ping, an unknown op) runs to
// completion on the reader, with no goroutine handoff. The coordinated
// ops — plain, or a batch they lead — wait on peers for up to
// core.DefaultOpTimeout a round and the admin ops walk or serialize the
// whole store; on the reader either would hold every request pipelined
// behind it on that connection.
func runsOnWorker(req *wire.Request) bool {
	switch req.Op {
	case wire.OpEncodeSet, wire.OpDecodeGet, wire.OpScan, wire.OpStats, wire.OpFlush:
		return true
	case wire.OpBatch:
		return coordinated(wire.BatchLead(req.Value))
	default:
		return false
	}
}

// coordinated reports whether op is one a core.Coordinator serves.
func coordinated(op wire.Op) bool { return op == wire.OpEncodeSet || op == wire.OpDecodeGet }

// handleBatch executes a vector of sub-requests and returns the
// sub-responses in one frame. A batch holds store ops, each run through
// s.handle, so per-op counters and error accounting see batched and
// unbatched traffic identically; or one coordinated op at its first
// sub-op's geometry, run as one coordinator call (coordinate). A sub-op
// it cannot hold is refused in its own slot. Sub-request keys and values
// alias the pooled batch frame body, and the store keeps what a write
// hands it, so a write's key and value are cloned out first: the store
// then owns its own bytes, and — since Get lends the store's own
// immutable slice, and a decode-get a value the coordinator joined —
// nothing the batch leaves behind aliases the inbound frame, which is
// why serve may release it before writing the response.
//
// Failure discipline: a sub-op that fails reports its status in its
// own slot; the frame-level response is an error only when the batch
// itself is unusable — undecodable payload, or an aggregate response
// too large for one frame (the client then splits and re-sends).
func (s *Server) handleBatch(req *wire.Request) wire.Response {
	subs, err := wire.DecodeBatchRequests(req.Value)
	if err != nil {
		return errorResponse(err)
	}
	resps := make([]wire.BatchResp, len(subs))
	var lead wire.BatchReq
	var served []wire.BatchReq // a coordinated batch's sub-ops, at their positions at
	var at []int
	if len(subs) > 0 && coordinated(subs[0].Op) {
		lead = subs[0]
		served, at = make([]wire.BatchReq, 0, len(subs)), make([]int, 0, len(subs))
	}
	var one wire.Request // each store sub-request in turn, as the frame it would have been
	for i := range subs {
		sub := &subs[i]
		var refused string
		switch {
		case !sub.Op.Batchable():
			refused = "not batchable"
		case lead.Op != 0 && (sub.Op != lead.Op || sub.Meta.K != lead.Meta.K || sub.Meta.M != lead.Meta.M):
			refused = "unlike the " + lead.Op.String() + " its batch leads with"
		case lead.Op != 0:
			served, at = append(served, *sub), append(at, i)
			continue
		case coordinated(sub.Op):
			refused = "behind a store op"
		}
		if refused != "" {
			s.mOpErrors.Inc()
			resps[i] = wire.BatchResp{Status: wire.StatusError, Value: []byte("op " + sub.Op.String() + " " + refused)}
			continue
		}
		one = wire.Request{Op: sub.Op, Key: sub.Key, Value: sub.Value, TTLSeconds: sub.TTLSeconds, Compare: sub.Compare, Meta: sub.Meta}
		switch sub.Op {
		case wire.OpSet, wire.OpSetChunk, wire.OpCompareSet:
			// The store keeps the key and the value: clone both out of the
			// leased frame. A read or a delete only looks at them.
			one.Key, one.Value = strings.Clone(sub.Key), bytes.Clone(sub.Value)
		}
		r := s.handle(&one)
		resps[i] = wire.BatchResp{Status: r.Status, Value: r.Value, TTLSeconds: r.TTLSeconds, Meta: r.Meta}
	}
	if len(served) > 0 {
		s.coordinate(served, at, resps)
		s.mOps[lead.Op].Add(int64(len(served)))
		for _, i := range at {
			s.countError(resps[i].Status)
		}
	}
	val, err := wire.AppendBatchResponses(nil, resps)
	if err != nil {
		// The aggregate response outgrew the frame. The writes (if any)
		// have landed; the client bisects the batch and re-reads.
		return errorResponse(err)
	}
	return wire.Response{Status: wire.StatusOK, Value: val}
}
