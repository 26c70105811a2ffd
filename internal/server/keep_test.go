package server

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/rpc"
	"ecstore/internal/store"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// scribblePool drains every buffer pool holds in the classes up to
// 256 KB and overwrites it.
func scribblePool(pool *bufpool.Pool) {
	for n := 512; n <= 256<<10; n <<= 1 {
		for {
			hits := pool.Stats().Hits
			b := pool.GetRaw(n)
			if pool.Stats().Hits == hits {
				break // a fresh allocation: the class is drained
			}
			b = b[:cap(b)]
			for i := range b {
				b[i] = 0xA5
			}
		}
	}
}

// TestLeasedKeyIsNeverKept pins the key half of the ownership rule: a
// leased frame lends its key as it lends its value, so a key the store
// keeps out of one must be a clone. Two paths store such a key, and both
// run here before every buffer the frame pool hands out is scribbled
// over:
//
//   - a batch of writes to fresh keys, whose sub-keys alias the batch
//     payload — the `strings.Clone(sub.Key)` in handleBatch;
//   - a delta patch whose base expires between the handler's read and
//     its swap (the store's clock moves 6 s at every reading, the base
//     lives 10 s), so that CompareSwap inserts the key afresh — the
//     `strings.Clone(req.Key)` in handleApplyDelta. A patch leaves the
//     chunk's size as it was, so its own write never evicts the entry:
//     expiry, or a delete from another connection, is how the entry goes.
//
// The store must then still list every key (ScanShard) and find it with
// its value (GetMeta). It fails without either clone.
func TestLeasedKeyIsNeverKept(t *testing.T) {
	// sync.Pool keeps a buffer per P out of other Ps' reach: on one P the
	// scribbling reaches every buffer the pool holds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fp := bufpool.New()
	var clock atomic.Int64
	network := transport.NewInproc(transport.Shape{})
	srv, err := New(Config{
		Addr: "lease-key", Network: network, Peers: []string{"lease-key"},
		Store:     store.Config{Now: func() time.Time { return time.Unix(clock.Add(6), 0) }},
		FramePool: fp,
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	pool := rpc.NewPool(network)
	t.Cleanup(pool.Close)
	do := func(req *wire.Request) *wire.Response {
		t.Helper()
		resp, err := pool.Roundtrip("lease-key", req)
		if err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		return resp
	}
	want := map[string][]byte{}

	subs := []wire.BatchReq{
		{Op: wire.OpSet, Key: "fresh-set", Value: []byte("set value")},
		{Op: wire.OpSetChunk, Key: "fresh-chunk-0", Value: []byte("chunk 0"), Meta: wire.ECMeta{Stripe: 8}},
		{Op: wire.OpSetChunk, Key: "fresh-chunk-1", Value: []byte("chunk 1"), Meta: wire.ECMeta{Stripe: 8}},
		{Op: wire.OpCompareSet, Key: "fresh-cas", Value: []byte("cas value"), Compare: wire.CompareAbsent, Meta: wire.ECMeta{Stripe: 9}},
	}
	payload, err := wire.AppendBatchRequests(nil, subs)
	if err != nil {
		t.Fatal(err)
	}
	resp := do(&wire.Request{Op: wire.OpBatch, Key: "batch", Value: payload})
	rs, err := wire.DecodeBatchResponses(resp.Value)
	if err != nil || len(rs) != len(subs) {
		t.Fatalf("batch: %v %+v", err, rs)
	}
	for i, r := range rs {
		if r.Err() != nil {
			t.Fatalf("batch sub-op %d: %v", i, r.Err())
		}
		want[subs[i].Key] = subs[i].Value
	}
	resp.Release()

	// An unversioned base (stripe 0) living 10 s, read at 12 s of the
	// store's clock and swapped at 18 s.
	meta := wire.ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 300, Stripe: 0}
	chunk := wire.EncodeChunkPayload(meta, bytes.Repeat([]byte{'c'}, 100))
	do(&wire.Request{Op: wire.OpSetChunk, Key: "patched", Value: bytes.Clone(chunk), TTLSeconds: 10, Meta: meta}).Release()
	patch := wire.EncodeDeltaPatch(100, []wire.DeltaRun{{Offset: 10, Data: bytes.Repeat([]byte{0x3C}, 8)}})
	meta.Stripe = 11
	if err := wire.ApplyDeltaPatch(chunk, patch, meta); err != nil {
		t.Fatal(err)
	}
	do(&wire.Request{Op: wire.OpApplyDelta, Key: "patched", Value: patch, Compare: 0, Meta: meta}).Release()
	if _, version, _, ok := srv.Store().GetMeta("patched"); !ok || version != 11 {
		t.Fatalf("the patch did not re-insert its key: ok=%v version=%d", ok, version)
	}
	want["patched"] = chunk

	scribblePool(fp)
	var keys []string
	for si := 0; si < srv.Store().Shards(); si++ {
		keys = append(keys, srv.Store().ScanShard(si, "", 1<<10)...)
	}
	slices.Sort(keys)
	var wantKeys []string
	for key := range want {
		wantKeys = append(wantKeys, key)
	}
	slices.Sort(wantKeys)
	if !slices.Equal(keys, wantKeys) {
		t.Fatalf("the store lists %q after the frame pool's buffers were overwritten, want %q", keys, wantKeys)
	}
	for key, v := range want {
		if got, _, _, ok := srv.Store().GetMeta(key); !ok || !bytes.Equal(got, v) {
			t.Errorf("GetMeta(%q) = %q, %v after the frame pool's buffers were overwritten, want %q", key, got, ok, v)
		}
	}
}

// TestKeptValueTakesNoLease pins the server's half of the ownership
// contract. A plain OpSet, OpSetChunk or OpCompareSet value is read into
// an allocation of its own and installed as it is: no frame-pool buffer
// of the value's size class is leased for it. And whatever the store
// keeps — a kept value, a value cloned out of an OpBatch, a chunk
// patched by OpApplyDelta — survives scribbling over every buffer the
// frame pool hands out afterwards.
func TestKeptValueTakesNoLease(t *testing.T) {
	// A 64 KB value makes a frame of the 128 KB class; nothing else a
	// server here leases (headers, empty answers) comes near it.
	const size = 64 << 10
	fp := bufpool.New()
	network := transport.NewInproc(transport.Shape{})
	srv, err := New(Config{
		Addr: "keep", Network: network, Peers: []string{"keep"},
		FramePool: fp,
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	pool := rpc.NewPool(network)
	t.Cleanup(pool.Close)
	do := func(req *wire.Request) *wire.Response {
		t.Helper()
		resp, err := pool.Roundtrip("keep", req)
		if err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		return resp
	}
	rng := rand.New(rand.NewSource(25))
	value := func() []byte {
		v := make([]byte, size)
		rng.Read(v)
		return v
	}

	// valueClassHit draws a buffer of the value frame's class and reports
	// whether the pool had one: it would, had a frame body of that size
	// been leased and handed back.
	valueClassHit := func() bool {
		hits := fp.Stats().Hits
		_ = fp.GetRaw(size + 1024)
		return fp.Stats().Hits != hits
	}
	// survives drains every buffer the frame pool holds, overwrites it,
	// then checks the store still holds want under each key.
	survives := func(after string, want map[string][]byte) {
		t.Helper()
		scribblePool(fp)
		for key, v := range want {
			if got, ok := srv.Store().Get(key); !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s: the stored value of %q changed when the frame pool's buffers were overwritten", after, key)
			}
		}
	}

	for _, op := range []wire.Op{wire.OpSet, wire.OpSetChunk, wire.OpCompareSet} {
		key := "kept-" + op.String()
		v := value()
		want := bytes.Clone(v)
		do(&wire.Request{Op: op, Key: key, Value: v, Compare: wire.CompareAbsent, Meta: wire.ECMeta{Stripe: 7}}).Release()
		if valueClassHit() {
			t.Errorf("%v: a frame-pool buffer of the value's size class was leased", op)
		}
		survives(op.String(), map[string][]byte{key: want})
	}

	// Two sub-ops make a real OpBatch, whose body is leased: the store
	// must keep clones of the sub-values, not windows of that body.
	subs := []wire.BatchReq{
		{Op: wire.OpSet, Key: "batch-a", Value: value()},
		{Op: wire.OpSetChunk, Key: "batch-b", Value: value(), Meta: wire.ECMeta{Stripe: 8}},
	}
	payload, err := wire.AppendBatchRequests(nil, subs)
	if err != nil {
		t.Fatal(err)
	}
	resp := do(&wire.Request{Op: wire.OpBatch, Key: "batch", Value: payload})
	rs, err := wire.DecodeBatchResponses(resp.Value)
	if err != nil || len(rs) != 2 || rs[0].Err() != nil || rs[1].Err() != nil {
		t.Fatalf("batch: %v %+v", err, rs)
	}
	resp.Release()
	survives("a batch", map[string][]byte{"batch-a": subs[0].Value, "batch-b": subs[1].Value})

	// A delta patch (leased) applied to a stored chunk: the patched copy
	// the store installs is the handler's own.
	meta := wire.ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 3 * size, Stripe: 10}
	chunk := wire.EncodeChunkPayload(meta, value())
	do(&wire.Request{Op: wire.OpSetChunk, Key: "delta", Value: bytes.Clone(chunk), Meta: meta}).Release()
	patch := wire.EncodeDeltaPatch(size, []wire.DeltaRun{{Offset: 100, Data: bytes.Repeat([]byte{0x3C}, 64)}})
	meta.Stripe = 11
	if err := wire.ApplyDeltaPatch(chunk, patch, meta); err != nil {
		t.Fatal(err)
	}
	do(&wire.Request{Op: wire.OpApplyDelta, Key: "delta", Value: patch, Compare: 10, Meta: meta}).Release()
	survives("a delta patch", map[string][]byte{"delta": chunk})
}
