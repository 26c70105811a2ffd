package server

import (
	"bytes"
	"testing"
	"time"

	"ecstore/internal/rpc"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// TestRoutingRuleCoversEveryOp pins runsOnWorker for the whole opcode
// space. An opcode added to package wire fails here until its route is
// chosen on purpose.
func TestRoutingRuleCoversEveryOp(t *testing.T) {
	onWorker := map[wire.Op]bool{
		wire.OpSet:        false,
		wire.OpGet:        false,
		wire.OpDelete:     false,
		wire.OpSetChunk:   false,
		wire.OpGetChunk:   false,
		wire.OpCompareSet: false,
		wire.OpApplyDelta: false,
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
		if got := runsOnWorker(op); got != want {
			t.Errorf("runsOnWorker(%v) = %v, want %v", op, got, want)
		}
		// A batch executes on the reader, so nothing that may block on a
		// peer can be allowed inside one.
		if op.Batchable() && runsOnWorker(op) {
			t.Errorf("op %v is batchable but routed to a worker", op)
		}
	}
	if runsOnWorker(wire.Op(200)) {
		t.Error("an unknown op is answered with an error; that needs no worker")
	}
}

// TestCoordinatedOpDoesNotBlockConnection: a decode-get waiting on a
// slow peer must not hold up a store-local request pipelined behind it
// on the same connection.
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
	// Two rounds of one, pipelined on the same connection, so each can be
	// waited on its own.
	var slowRound, fastRound rpc.Round
	var slow, fast rpc.Call
	pool.Begin(&slowRound)
	slowRound.Issue(&slow, "s0", &wire.Request{Op: wire.OpDecodeGet, Key: "k", Meta: meta})
	pool.Begin(&fastRound)
	fastRound.Issue(&fast, "s0", &wire.Request{Op: wire.OpGetChunk, Key: "local"})
	fastRound.Wait()
	resp, err := fast.Result()
	if err != nil || resp.Err() != nil || string(resp.Value) != "v" {
		t.Fatalf("get-chunk behind a decode-get: %v / %+v", err, resp)
	}
	if slow.Ready() {
		t.Fatal("the delayed decode-get finished before the get-chunk pipelined behind it: the delay did not bite")
	}
	slowRound.Wait()
	resp, err = slow.Result()
	if err != nil || resp.Err() != nil {
		t.Fatalf("decode-get: %v / %+v", err, resp)
	}
	if !bytes.Equal(resp.Value, value) {
		t.Fatal("decode-get value differs")
	}
}

// TestMetricsIdenticalOnBothRoutes: the per-op counter, the error
// counter and the handle-latency histogram are fed by handle/serve, so
// a request counts the same whether the reader or a worker ran it, and
// a batched sub-op counts like the same op sent on its own.
func TestMetricsIdenticalOnBothRoutes(t *testing.T) {
	servers, pool := startServers(t, 1, 1<<20)
	s := servers[0]
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
			wire.BatchReq{Op: wire.OpDecodeGet, Key: "k", Meta: wire.ECMeta{K: 3, M: 2}}, // refused: not batchable
		), map[wire.Op]int64{wire.OpBatch: 1, wire.OpSet: 2, wire.OpGet: 2}, 2},
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
