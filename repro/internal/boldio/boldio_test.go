package boldio_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/repro/internal/boldio"
	"ecstore/repro/internal/lustre"
)

// testRig builds a 5-server cluster, an erasure-coded client, a
// DirFS, and a burst buffer with small chunks for fast tests.
func testRig(t *testing.T, resilience core.Resilience) (*cluster.Cluster, *boldio.BurstBuffer, *lustre.DirFS) {
	t.Helper()
	cl, err := cluster.Start(cluster.Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	client, err := core.New(core.Config{
		Network:    cl.Network(),
		Servers:    cl.Addrs(),
		Resilience: resilience,
		K:          3, M: 2, Replicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	fs, err := lustre.NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fs.Close() })
	bb, err := boldio.New(boldio.Config{Client: client, FS: fs, ChunkSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bb.Close() })
	return cl, bb, fs
}

func randBytes(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(42)).Read(b)
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, res := range []core.Resilience{core.ResilienceErasure, core.ResilienceAsyncRep} {
		t.Run(res.String(), func(t *testing.T) {
			_, bb, _ := testRig(t, res)
			// A file spanning many chunks plus a partial tail.
			data := randBytes(10*(4<<10) + 1234)
			n, err := bb.WriteFile("job/part-0", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(data)) {
				t.Fatalf("wrote %d of %d", n, len(data))
			}
			var out bytes.Buffer
			rn, err := bb.ReadFile("job/part-0", &out)
			if err != nil {
				t.Fatal(err)
			}
			if rn != int64(len(data)) || !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("read %d bytes, equal=%v", rn, bytes.Equal(out.Bytes(), data))
			}
		})
	}
}

func TestEmptyFile(t *testing.T) {
	_, bb, _ := testRig(t, core.ResilienceErasure)
	if _, err := bb.WriteFile("empty", bytes.NewReader(nil)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	n, err := bb.ReadFile("empty", &out)
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestExactChunkMultiple(t *testing.T) {
	_, bb, _ := testRig(t, core.ResilienceErasure)
	data := randBytes(3 * (4 << 10))
	if _, err := bb.WriteFile("exact", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := bb.ReadFile("exact", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("data differs")
	}
}

func TestPersistenceToFS(t *testing.T) {
	_, bb, fs := testRig(t, core.ResilienceErasure)
	data := randBytes(5 * (4 << 10))
	if _, err := bb.WriteFile("persist-me", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := bb.Flush(); err != nil {
		t.Fatal(err)
	}
	size, err := fs.Size("persist-me")
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) {
		t.Fatalf("persisted %d of %d bytes", size, len(data))
	}
	buf := make([]byte, len(data))
	if _, err := fs.ReadChunk("persist-me", 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("persisted bytes differ")
	}
}

func TestReadSurvivesServerFailures(t *testing.T) {
	cl, bb, _ := testRig(t, core.ResilienceErasure)
	data := randBytes(8 * (4 << 10))
	if _, err := bb.WriteFile("resilient", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	cl.Kill(0)
	cl.Kill(2)
	var out bytes.Buffer
	if _, err := bb.ReadFile("resilient", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("degraded read differs")
	}
}

func TestReadFallsBackToPFSAfterTotalCacheLoss(t *testing.T) {
	cl, bb, _ := testRig(t, core.ResilienceErasure)
	data := randBytes(6 * (4 << 10))
	if _, err := bb.WriteFile("coldread", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := bb.Flush(); err != nil {
		t.Fatal(err)
	}
	// Lose more servers than the code tolerates: the cache cannot
	// serve, so reads must come from the PFS copy.
	cl.Kill(0)
	cl.Kill(1)
	cl.Kill(2)
	var out bytes.Buffer
	if _, err := bb.ReadFile("coldread", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("PFS-recovered bytes differ")
	}
}

func TestReadMissingFile(t *testing.T) {
	_, bb, _ := testRig(t, core.ResilienceErasure)
	var out bytes.Buffer
	if _, err := bb.ReadFile("no-such-file", &out); err == nil {
		t.Fatal("read of missing file succeeded")
	}
}

func TestManyFiles(t *testing.T) {
	_, bb, _ := testRig(t, core.ResilienceErasure)
	files := map[string][]byte{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("out/part-%d", i)
		data := randBytes(1024 * (i + 1))
		files[name] = data
		if _, err := bb.WriteFile(name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range files {
		var out bytes.Buffer
		if _, err := bb.ReadFile(name, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s differs", name)
		}
	}
}

func TestDeleteFile(t *testing.T) {
	_, bb, fs := testRig(t, core.ResilienceErasure)
	data := randBytes(5 * (4 << 10))
	if _, err := bb.WriteFile("doomed", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := bb.Flush(); err != nil {
		t.Fatal(err)
	}
	// Cache-only delete: the PFS copy survives, so a read falls back
	// to it.
	if err := bb.DeleteFile("doomed", false); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := bb.ReadFile("doomed", &out); err != nil {
		t.Fatalf("read after cache delete (PFS copy should serve): %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("PFS-served bytes differ")
	}
	// Full delete: nothing remains anywhere.
	if err := bb.DeleteFile("doomed", true); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Size("doomed"); err == nil {
		t.Fatal("PFS copy survives full delete")
	}
	out.Reset()
	if _, err := bb.ReadFile("doomed", &out); err == nil {
		t.Fatal("read succeeded after full delete")
	}
	if err := bb.DeleteFile("never-existed", false); err == nil {
		t.Fatal("deleting a missing file succeeded")
	}
}

func TestCloseIsIdempotentAndBlocksUse(t *testing.T) {
	_, bb, _ := testRig(t, core.ResilienceErasure)
	if err := bb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := bb.WriteFile("x", bytes.NewReader([]byte("y"))); err == nil {
		t.Fatal("write after close succeeded")
	}
	var out bytes.Buffer
	if _, err := bb.ReadFile("x", &out); err == nil {
		t.Fatal("read after close succeeded")
	}
}

func TestNilClientRejected(t *testing.T) {
	if _, err := boldio.New(boldio.Config{}); err == nil {
		t.Fatal("nil client accepted")
	}
}
