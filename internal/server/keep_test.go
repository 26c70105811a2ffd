package server

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ecstore/internal/bufpool"
	"ecstore/internal/rpc"
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
// keeps out of one must be a clone. One path stores such a key — a
// batch of writes to fresh keys, whose sub-keys alias the batch payload:
// the `strings.Clone(sub.Key)` in handleBatch — and it runs here before
// every buffer the frame pool hands out is scribbled over. The store
// must then still list every key (ScanShard) and find it with its value
// (GetMeta). It fails without the clone.
func TestLeasedKeyIsNeverKept(t *testing.T) {
	// sync.Pool keeps a buffer per P out of other Ps' reach: on one P the
	// scribbling reaches every buffer the pool holds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fp := bufpool.New()
	network := transport.NewInproc(transport.Shape{})
	srv, err := New(Config{
		Addr: "lease-key", Network: network, Peers: []string{"lease-key"},
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
// keeps — a kept value, a value cloned out of an OpBatch — survives
// scribbling over every buffer the frame pool hands out afterwards.
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
}
