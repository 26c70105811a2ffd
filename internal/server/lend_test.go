package server

import (
	"bytes"
	"testing"

	"ecstore/internal/rpc"
	"ecstore/internal/store"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// chunkPayload builds the stored form of one 256-byte chunk filled with
// fill, as stripe version.
func chunkPayload(fill byte, version uint64) ([]byte, wire.ECMeta) {
	meta := wire.ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 700, Stripe: version}
	return wire.EncodeChunkPayload(meta, bytes.Repeat([]byte{fill}, 256)), meta
}

// TestLentValueSurvivesEveryWrite pins the server's side of the store's
// lend contract: a slice GetMeta handed out stays byte-identical while
// the key is overwritten, delta-patched (the one read-modify-write —
// handleApplyDelta must patch a copy of its own), deleted, and evicted
// under a one-item budget.
func TestLentValueSurvivesEveryWrite(t *testing.T) {
	payload, meta := chunkPayload('a', 10)
	// One shard, room for one chunk (and its key) exactly.
	budget := int64(len("k")+len(payload)) + store.ItemOverhead
	network := transport.NewInproc(transport.Shape{})
	srv, err := New(Config{
		Addr: "lend", Network: network, Peers: []string{"lend"},
		Store: store.Config{MaxBytes: budget, Shards: 1},
		Logf:  func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	pool := rpc.NewPool(network)
	t.Cleanup(pool.Close)
	do := func(req *wire.Request) *wire.Response {
		t.Helper()
		resp, err := pool.Roundtrip("lend", req)
		if err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		return resp
	}

	do(&wire.Request{Op: wire.OpSetChunk, Key: "k", Value: payload, Meta: meta}).Release()
	lent, version, _, ok := srv.Store().GetMeta("k")
	if !ok || version != 10 {
		t.Fatalf("GetMeta: ok=%v version=%d", ok, version)
	}
	want := append([]byte(nil), lent...)
	check := func(after string) {
		t.Helper()
		if !bytes.Equal(lent, want) {
			t.Fatalf("the lent value changed after %s", after)
		}
	}

	// Delta patch 10 -> 11: flips 16 bytes of the chunk in the store.
	patch := wire.EncodeDeltaPatch(256, []wire.DeltaRun{{Offset: 32, Data: bytes.Repeat([]byte{0xFF}, 16)}})
	meta.Stripe = 11
	do(&wire.Request{Op: wire.OpApplyDelta, Key: "k", Value: patch, Compare: 10, Meta: meta}).Release()
	if cur, v, _, _ := srv.Store().GetMeta("k"); v != 11 || bytes.Equal(cur, want) {
		t.Fatalf("the patch did not land: version %d", v)
	}
	check("a delta patch")

	next, nextMeta := chunkPayload('b', 12)
	do(&wire.Request{Op: wire.OpSetChunk, Key: "k", Value: next, Meta: nextMeta}).Release()
	check("an overwrite")
	do(&wire.Request{Op: wire.OpDelete, Key: "k"}).Release()
	check("a delete")

	// Back in, lent again, then pushed out by another key of the same size.
	do(&wire.Request{Op: wire.OpSetChunk, Key: "k", Value: payload, Meta: wire.ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 700, Stripe: 10}}).Release()
	lent, _, _, _ = srv.Store().GetMeta("k")
	do(&wire.Request{Op: wire.OpSetChunk, Key: "j", Value: next, Meta: nextMeta}).Release()
	if _, ok := srv.Store().Get("k"); ok {
		t.Fatal("k survived a write that needed its room")
	}
	check("an eviction")
}

// TestPipelinedReadsAroundWriteSeeWholeVersions: two OpGetChunks of one
// key pipelined around an OpSetChunk on one connection are served in
// order by the connection's reader, and their responses alias the
// store's slices until written — each must carry one whole version, the
// first the old one, the second the new one. Large enough values that
// the response frames carry them as a second vector rather than a copy.
func TestPipelinedReadsAroundWriteSeeWholeVersions(t *testing.T) {
	servers, pool := startServers(t, 1, 0)
	addr := servers[0].Addr()
	const size = 64 << 10 // over wire.FrameInlineThreshold
	older := bytes.Repeat([]byte{'o'}, size)
	newer := bytes.Repeat([]byte{'n'}, size)
	if _, err := pool.Roundtrip(addr, &wire.Request{Op: wire.OpSetChunk, Key: "k", Value: older, Meta: wire.ECMeta{Stripe: 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		var round rpc.Round
		var calls [3]rpc.Call
		pool.Begin(&round)
		round.Issue(&calls[0], addr, &wire.Request{Op: wire.OpGetChunk, Key: "k"})
		round.Issue(&calls[1], addr, &wire.Request{Op: wire.OpSetChunk, Key: "k", Value: newer, Meta: wire.ECMeta{Stripe: uint64(i + 2)}})
		round.Issue(&calls[2], addr, &wire.Request{Op: wire.OpGetChunk, Key: "k"})
		round.Wait()
		for j, want := range [][]byte{older, nil, newer} {
			resp, err := calls[j].Result()
			if err != nil || resp.Err() != nil {
				t.Fatalf("call %d: %v / %+v", j, err, resp)
			}
			if want != nil && !bytes.Equal(resp.Value, want) {
				t.Fatalf("round %d: read %d returned %q…%q, want one whole version of %q",
					i, j, resp.Value[:1], resp.Value[len(resp.Value)-1:], want[:1])
			}
			resp.Release()
		}
		older, newer = newer, older
	}
}
