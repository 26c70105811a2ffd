package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ecstore/internal/bufpool"
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
// the key is overwritten, deleted, and evicted under a one-item budget.
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

// TestCoordinatorLeasesBalance: a server's coordinator leases the chunk
// payloads it sends, and reads its peers' answers, from the server's one
// frame pool — its own chunks too, which come back in through its reader
// like a peer's. On a three-server cluster, where RS(3,2) wraps and a
// holder's chunks travel as one batch, every lease of every server comes
// back after encode-sets, decode-gets and a degraded decode-get.
func TestCoordinatorLeasesBalance(t *testing.T) {
	network := transport.NewInproc(transport.Shape{})
	addrs := []string{"c0", "c1", "c2"}
	servers := make([]*Server, len(addrs))
	pools := make([]*bufpool.Pool, len(addrs))
	for i, addr := range addrs {
		pools[i] = bufpool.New()
		srv, err := New(Config{Addr: addr, Network: network, Peers: addrs, FramePool: pools[i], Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		t.Cleanup(srv.Close)
	}
	pool := rpc.NewPool(network)
	t.Cleanup(pool.Close)
	meta := wire.ECMeta{K: 3, M: 2}
	for i, size := range []int{700, 64 << 10} {
		key := fmt.Sprintf("k%d", i)
		value := bytes.Repeat([]byte{byte('a' + i)}, size)
		if _, err := pool.Roundtrip("c0", &wire.Request{Op: wire.OpEncodeSet, Key: key, Value: value, Meta: meta}); err != nil {
			t.Fatal(err)
		}
		for _, lose := range []bool{false, true} {
			if lose {
				for _, srv := range servers {
					srv.Store().Delete(wire.ChunkKey(key, 0))
				}
			}
			resp, err := pool.Roundtrip("c1", &wire.Request{Op: wire.OpDecodeGet, Key: key, Meta: meta})
			if err != nil || !bytes.Equal(resp.Value, value) {
				t.Fatalf("decode-get %s (chunk 0 lost %v): %v", key, lose, err)
			}
			resp.Release()
		}
	}
	// A response frame goes back to its pool once written, which may be
	// just after its reader has it.
	deadline := time.Now().Add(5 * time.Second)
	for i, fp := range pools {
		for st := fp.Stats(); st.Gets != st.Puts; st = fp.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: frame pool lease imbalance: %d gets vs %d puts", addrs[i], st.Gets, st.Puts)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
