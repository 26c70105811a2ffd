package server

import (
	"bytes"
	"testing"
	"time"

	"ecstore/internal/rpc"
	"ecstore/internal/store"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// TestRoutingRuleCoversEveryOp pins runsOnWorker for the whole opcode
// space, and for a batch led by each batchable op. An opcode added to
// package wire fails here until its route is chosen on purpose.
func TestRoutingRuleCoversEveryOp(t *testing.T) {
	onWorker := map[wire.Op]bool{
		wire.OpSet:        false,
		wire.OpGet:        false,
		wire.OpDelete:     false,
		wire.OpSetChunk:   false,
		wire.OpGetChunk:   false,
		wire.OpCompareSet: false,
		wire.OpBatch:      false,
		wire.OpPing:       false,
		wire.OpRingGet:    false,
		wire.OpRingUpdate: false,
		wire.OpEncodeSet:  true, // waits on K+M peers
		wire.OpDecodeGet:  true, // waits on K peers
		wire.OpScan:       true, // walks the store, frame-sized answer
		wire.OpStats:      true, // serializes every metric
		wire.OpFlush:      true, // takes every shard lock
	}
	for op := wire.Op(1); op.Valid(); op++ {
		want, ok := onWorker[op]
		if !ok {
			t.Fatalf("op %v has no route in this table: decide whether the connection's reader or a worker runs it", op)
		}
		if got := runsOnWorker(&wire.Request{Op: op}); got != want {
			t.Errorf("runsOnWorker(%v) = %v, want %v", op, got, want)
		}
		if !op.Batchable() {
			continue
		}
		// A batch goes where its lead goes: one led by a coordinated op is
		// one coordinator call, which waits on peers, so it takes a worker;
		// one led by a store op runs on the reader.
		payload, err := wire.AppendBatchRequests(nil, []wire.BatchReq{
			{Op: op, Key: "k", Meta: wire.ECMeta{K: 3, M: 2}},
			{Op: wire.OpGet, Key: "k"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := runsOnWorker(&wire.Request{Op: wire.OpBatch, Value: payload}); got != want {
			t.Errorf("runsOnWorker(batch led by %v) = %v, want %v", op, got, want)
		}
	}
	if runsOnWorker(&wire.Request{Op: wire.Op(200)}) {
		t.Error("an unknown op is answered with an error; that needs no worker")
	}
	empty, _ := wire.AppendBatchRequests(nil, nil)
	if runsOnWorker(&wire.Request{Op: wire.OpBatch, Value: empty}) {
		t.Error("an empty batch touches nothing; that needs no worker")
	}
}

// TestCoordinatedOpDoesNotBlockConnection: a decode-get waiting on a
// slow peer — plain, or a batch of them — must not hold up a store-local
// request pipelined behind it on the same connection.
func TestCoordinatedOpDoesNotBlockConnection(t *testing.T) {
	network := transport.NewNetem(transport.NewInproc(transport.Shape{}))
	addrs := []string{"s0", "s1", "s2", "s3", "s4"}
	for _, addr := range addrs {
		srv, err := New(Config{Addr: addr, Network: network, Peers: addrs, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
	}
	pool := rpc.NewPool(network)
	t.Cleanup(pool.Close)

	value := bytes.Repeat([]byte("stripe"), 2000)
	meta := wire.ECMeta{K: 3, M: 2}
	if _, err := pool.Roundtrip("s0", &wire.Request{Op: wire.OpEncodeSet, Key: "k", Value: value, Meta: meta}); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Roundtrip("s0", &wire.Request{Op: wire.OpSetChunk, Key: "local", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	// Every peer of s0 now answers slowly; the test's own connection to
	// s0 does not.
	for _, addr := range addrs[1:] {
		network.Delay(addr, 100*time.Millisecond)
	}
	// A peer connection's reader that was already parked in Read picked
	// its (zero) delay up before it parked; one decode-get moves every
	// such reader on to a Read that sees the fault.
	if _, err := pool.Roundtrip("s0", &wire.Request{Op: wire.OpDecodeGet, Key: "k", Meta: meta}); err != nil {
		t.Fatal(err)
	}
	batch, err := wire.AppendBatchRequests(nil, []wire.BatchReq{
		{Op: wire.OpDecodeGet, Key: "k", Meta: meta},
		{Op: wire.OpDecodeGet, Key: "k", Meta: meta},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, slowReq := range []*wire.Request{
		{Op: wire.OpDecodeGet, Key: "k", Meta: meta},
		{Op: wire.OpBatch, Key: "batch", Value: batch},
	} {
		t.Run(slowReq.Op.String(), func(t *testing.T) {
			// Two rounds of one, pipelined on the same connection, so each
			// can be waited on its own.
			var slowRound, fastRound rpc.Round
			var slow, fast rpc.Call
			pool.Begin(&slowRound)
			slowRound.Issue(&slow, "s0", slowReq)
			pool.Begin(&fastRound)
			fastRound.Issue(&fast, "s0", &wire.Request{Op: wire.OpGetChunk, Key: "local"})
			fastRound.Wait()
			resp, err := fast.Result()
			if err != nil || resp.Err() != nil || string(resp.Value) != "v" {
				t.Fatalf("get-chunk behind a %v: %v / %+v", slowReq.Op, err, resp)
			}
			if slow.Ready() {
				t.Fatalf("the delayed %v finished before the get-chunk pipelined behind it: the delay did not bite", slowReq.Op)
			}
			slowRound.Wait()
			resp, err = slow.Result()
			if err != nil || resp.Err() != nil {
				t.Fatalf("%v: %v / %+v", slowReq.Op, err, resp)
			}
			subs := []wire.BatchResp{{Status: resp.Status, Value: resp.Value}}
			if slowReq.Op == wire.OpBatch {
				if subs, err = wire.DecodeBatchResponses(resp.Value); err != nil || len(subs) != 2 {
					t.Fatalf("batch answer: %d sub-responses, %v", len(subs), err)
				}
			}
			for i, sub := range subs {
				if sub.Status != wire.StatusOK || !bytes.Equal(sub.Value, value) {
					t.Fatalf("decode-get %d: %v, %d bytes; want the value", i, sub.Status, len(sub.Value))
				}
			}
		})
	}
}

// TestBatchRefusesWhatItCannotHold: a batch holds store ops, or one
// coordinated op at its lead's geometry. A sub-op it cannot hold is
// refused in its own slot, and the others are still served.
func TestBatchRefusesWhatItCannotHold(t *testing.T) {
	servers, pool := startServers(t, 5, 0)
	addr := servers[0].Addr()
	meta := wire.ECMeta{K: 3, M: 2}
	value := bytes.Repeat([]byte("stripe"), 500)
	for _, req := range []*wire.Request{
		{Op: wire.OpEncodeSet, Key: "k", Value: value, Meta: meta},
		{Op: wire.OpSet, Key: "local", Value: []byte("v")},
	} {
		resp, err := pool.Roundtrip(addr, req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	decodeGet := wire.BatchReq{Op: wire.OpDecodeGet, Key: "k", Meta: meta}
	get := wire.BatchReq{Op: wire.OpGet, Key: "local"}
	otherGeometry := wire.BatchReq{Op: wire.OpDecodeGet, Key: "k", Meta: wire.ECMeta{K: 2, M: 2}}
	cases := []struct {
		name string
		subs []wire.BatchReq
		want []string // each slot's value; "refused" for a refusal
	}{
		{"coordinated op behind a store op", []wire.BatchReq{get, decodeGet, get}, []string{"v", "refused", "v"}},
		{"store op behind a coordinated lead", []wire.BatchReq{decodeGet, get, decodeGet}, []string{string(value), "refused", string(value)}},
		{"another geometry than the lead's", []wire.BatchReq{decodeGet, otherGeometry, decodeGet}, []string{string(value), "refused", string(value)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := wire.AppendBatchRequests(nil, tc.subs)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := pool.Roundtrip(addr, &wire.Request{Op: wire.OpBatch, Key: "b", Value: payload})
			if err != nil {
				t.Fatalf("the batch failed as a whole: %v", err)
			}
			defer resp.Release()
			subs, err := wire.DecodeBatchResponses(resp.Value)
			if err != nil || len(subs) != len(tc.want) {
				t.Fatalf("%d sub-responses, %v; want %d", len(subs), err, len(tc.want))
			}
			for i, want := range tc.want {
				switch sub := subs[i]; {
				case want == "refused":
					if sub.Status != wire.StatusError {
						t.Errorf("slot %d (%v): %v, want refused", i, tc.subs[i].Op, sub.Status)
					}
				case sub.Status != wire.StatusOK || string(sub.Value) != want:
					t.Errorf("slot %d (%v): %v, %d bytes; want served", i, tc.subs[i].Op, sub.Status, len(sub.Value))
				}
			}
		})
	}
}

// TestMetricsIdenticalOnBothRoutes: the per-op counter, the error
// counter and the handle-latency histogram are fed by handle/serve, so
// a request counts the same whether the reader or a worker ran it, and
// a batched sub-op counts like the same op sent on its own.
func TestMetricsIdenticalOnBothRoutes(t *testing.T) {
	// s coordinates over five peers and holds no chunk itself, so only
	// the frame under test moves its counters.
	network := transport.NewInproc(transport.Shape{})
	peers := []string{"p0", "p1", "p2", "p3", "p4"}
	var s *Server
	for _, addr := range append(peers, "s") {
		srv, err := New(Config{
			Addr: addr, Network: network, Peers: peers,
			Store: store.Config{MaxBytes: 1 << 20}, Logf: func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		s = srv
	}
	pool := rpc.NewPool(network)
	t.Cleanup(pool.Close)
	batch := func(subs ...wire.BatchReq) *wire.Request {
		val, err := wire.AppendBatchRequests(nil, subs)
		if err != nil {
			t.Fatal(err)
		}
		return &wire.Request{Op: wire.OpBatch, Key: "b", Value: val}
	}
	tooBig := make([]byte, 2<<20) // over the store's cap: StatusOutOfMemory

	cases := []struct {
		name     string
		req      *wire.Request
		ops      map[wire.Op]int64 // expected ops_total deltas
		opErrors int64
	}{
		{"reader ok", &wire.Request{Op: wire.OpSet, Key: "k", Value: []byte("v")}, map[wire.Op]int64{wire.OpSet: 1}, 0},
		{"reader not-found", &wire.Request{Op: wire.OpGet, Key: "absent"}, map[wire.Op]int64{wire.OpGet: 1}, 0},
		{"reader error", &wire.Request{Op: wire.OpSet, Key: "big", Value: tooBig}, map[wire.Op]int64{wire.OpSet: 1}, 1},
		{"worker ok", &wire.Request{Op: wire.OpStats, Key: "s"}, map[wire.Op]int64{wire.OpStats: 1}, 0},
		{"worker error", &wire.Request{Op: wire.OpScan, Key: "s", Value: []byte("bad cursor")}, map[wire.Op]int64{wire.OpScan: 1}, 1},
		{"batch", batch(
			wire.BatchReq{Op: wire.OpSet, Key: "b1", Value: []byte("v")},
			wire.BatchReq{Op: wire.OpGet, Key: "b1"},
			wire.BatchReq{Op: wire.OpGet, Key: "absent"},
			wire.BatchReq{Op: wire.OpSet, Key: "big", Value: tooBig},
			wire.BatchReq{Op: wire.OpDecodeGet, Key: "k", Meta: wire.ECMeta{K: 3, M: 2}}, // refused: behind a store op
		), map[wire.Op]int64{wire.OpBatch: 1, wire.OpSet: 2, wire.OpGet: 2}, 2},
		{"coordinated batch", batch(
			wire.BatchReq{Op: wire.OpDecodeGet, Key: "c1", Meta: wire.ECMeta{K: 3, M: 2}}, // absent: not an error
			wire.BatchReq{Op: wire.OpDecodeGet, Key: "c2", Meta: wire.ECMeta{K: 3, M: 2}},
			wire.BatchReq{Op: wire.OpGet, Key: "b1"}, // refused: unlike its lead
			wire.BatchReq{Op: wire.OpDecodeGet, Key: "c3", Meta: wire.ECMeta{K: 3, M: 2}},
		), map[wire.Op]int64{wire.OpBatch: 1, wire.OpDecodeGet: 3}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := make(map[wire.Op]int64, len(s.mOps))
			for op, c := range s.mOps {
				before[op] = c.Value()
			}
			errsBefore, handledBefore := s.mOpErrors.Value(), s.hHandleSeconds.Count()

			// Roundtrip maps the statuses these cases provoke to errors;
			// only a transport failure leaves no response.
			resp, err := pool.Roundtrip(s.Addr(), tc.req)
			if resp == nil {
				t.Fatal(err)
			}
			resp.Release()

			for op, c := range s.mOps {
				if got := c.Value() - before[op]; got != tc.ops[op] {
					t.Errorf("ops_total{op=%q} moved by %d, want %d", op, got, tc.ops[op])
				}
			}
			if got := s.mOpErrors.Value() - errsBefore; got != tc.opErrors {
				t.Errorf("op_errors_total moved by %d, want %d", got, tc.opErrors)
			}
			// One latency sample per frame, whoever served it; sub-ops
			// are inside their batch's sample.
			if got := s.hHandleSeconds.Count() - handledBefore; got != 1 {
				t.Errorf("handle_seconds took %d samples for one frame", got)
			}
		})
	}
}
