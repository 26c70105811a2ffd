package core_test

import (
	"bytes"
	"testing"

	"ecstore/internal/cluster"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// TestChunkStripeIsItemVersion: a chunk record does not carry its
// stripe — the item's version does — so every path that writes a chunk
// must install the write's stripe as that version. On each (set-chunk,
// chunk-mode compare-set for a Cas and an Add, a coordinator's
// encode-set and a repair's refill) every holder's
// get-chunk answer names the stripe the write returned, and its record
// decodes as the right chunk.
func TestChunkStripeIsItemVersion(t *testing.T) {
	cl := startCluster(t, 5)
	pool := rpc.NewPool(cl.Network())
	t.Cleanup(pool.Close)
	check := func(t *testing.T, key string, want uint64) {
		t.Helper()
		for i, s := range chunkHolders(cl, key, 5) {
			ck := wire.ChunkKey(key, i)
			resp, err := pool.Roundtrip(cl.Addrs()[s], &wire.Request{Op: wire.OpGetChunk, Key: ck})
			if err != nil {
				t.Fatalf("get-chunk %q: %v", ck, err)
			}
			meta, _, err := wire.DecodeChunkPayload(resp.Value)
			if err != nil || int(meta.ChunkIndex) != i || resp.Meta.Stripe != want {
				t.Errorf("chunk %d: stripe %d, record %+v, %v; want stripe %d", i, resp.Meta.Stripe, meta, err, want)
			}
			resp.Release()
		}
	}
	value := bytes.Repeat([]byte("v"), 1000)
	other := bytes.Repeat([]byte("o"), 1000)
	plain := newClient(t, cl, allModes()["era-ce-cd"])

	t.Run("set-chunk", func(t *testing.T) {
		v, err := plain.SetVersion("set", value, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "set", v)
	})
	t.Run("compare-set", func(t *testing.T) {
		v, err := plain.SetVersion("cas", value, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v, err = plain.Cas("cas", other, 0, v); err != nil {
			t.Fatal(err)
		}
		check(t, "cas", v)
		if v, err = plain.Cas("add", value, 0, wire.CompareAbsent); err != nil {
			t.Fatal(err)
		}
		check(t, "add", v)
	})
	t.Run("encode-set", func(t *testing.T) {
		// The coordinator stores its own chunk and sends the others.
		v, err := newClient(t, cl, allModes()["era-se-sd"]).SetVersion("encode", value, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "encode", v)
	})
	t.Run("repair", func(t *testing.T) {
		v, err := plain.SetVersion("repair", value, 0)
		if err != nil {
			t.Fatal(err)
		}
		lose(cl, "repair", 1)
		lose(cl, "repair", 4)
		if _, err := plain.Repair("repair"); err != nil {
			t.Fatal(err)
		}
		check(t, "repair", v)
	})
}

// lose deletes chunk i of key from the server holding it.
func lose(cl *cluster.Cluster, key string, i int) {
	cl.Server(chunkHolders(cl, key, i+1)[i]).Store().Delete(wire.ChunkKey(key, i))
}
