package lustre

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"ecstore/repro/internal/simnet"
)

func newTestFS(t *testing.T) *DirFS {
	t.Helper()
	fs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fs.Close() })
	return fs
}

func TestDirFSWriteReadChunk(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteChunk("dir/file.dat", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteChunk("dir/file.dat", 5, []byte(" world")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 11)
	n, err := fs.ReadChunk("dir/file.dat", 0, buf)
	if err != nil || n != 11 {
		t.Fatalf("read %d, %v", n, err)
	}
	if string(buf) != "hello world" {
		t.Fatalf("got %q", buf)
	}
	size, err := fs.Size("dir/file.dat")
	if err != nil || size != 11 {
		t.Fatalf("size %d, %v", size, err)
	}
}

func TestDirFSSparseWrite(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.WriteChunk("f", 100, []byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if n, err := fs.ReadChunk("f", 100, buf); err != nil || n != 1 || buf[0] != 'x' {
		t.Fatalf("n=%d err=%v buf=%q", n, err, buf)
	}
}

func TestDirFSReadMissing(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.ReadChunk("missing", 0, make([]byte, 4)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("got %v", err)
	}
}

func TestDirFSRemove(t *testing.T) {
	fs := newTestFS(t)
	_ = fs.WriteChunk("f", 0, []byte("data"))
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadChunk("f", 0, make([]byte, 4)); err == nil {
		t.Fatal("read after remove succeeded")
	}
}

func TestDirFSRejectsBadPaths(t *testing.T) {
	fs := newTestFS(t)
	for _, p := range []string{"", "/abs", "../escape", "a/../../b"} {
		if err := fs.WriteChunk(p, 0, []byte("x")); !errors.Is(err, ErrBadPath) {
			t.Errorf("path %q: err %v", p, err)
		}
	}
}

func TestDirFSLargeChunks(t *testing.T) {
	fs := newTestFS(t)
	chunk := bytes.Repeat([]byte{0xAB}, 1<<20)
	for i := int64(0); i < 3; i++ {
		if err := fs.WriteChunk("big", i<<20, chunk); err != nil {
			t.Fatal(err)
		}
	}
	size, _ := fs.Size("big")
	if size != 3<<20 {
		t.Fatalf("size %d", size)
	}
	buf := make([]byte, 1<<20)
	if _, err := fs.ReadChunk("big", 1<<20, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, chunk) {
		t.Fatal("middle chunk differs")
	}
}

func TestSimPFSSharedBandwidth(t *testing.T) {
	prof := SimProfile{
		Name:             "test",
		WriteBytesPerSec: 1e9,
		ReadBytesPerSec:  1e9,
		RPCLatency:       time.Millisecond,
	}
	k := simnet.NewKernel(1)
	pfs := NewSimPFS(k, prof)
	const size = 100 << 20 // 100 MB => 100ms at 1 GB/s
	var t1, t2 time.Duration
	k.Go("w1", func(p *simnet.Proc) { pfs.Write(p, size); t1 = p.Now() })
	k.Go("w2", func(p *simnet.Proc) { pfs.Write(p, size); t2 = p.Now() })
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// The two writers share the aggregate pipe: the second finishes
	// around 2x the single-writer time.
	first, second := t1, t2
	if second < first {
		first, second = second, first
	}
	if first < 100*time.Millisecond || second < 200*time.Millisecond {
		t.Fatalf("writes finished at %v and %v; pipe not shared", first, second)
	}
	if pfs.BytesWritten() != 2*size {
		t.Fatalf("written %d", pfs.BytesWritten())
	}
}

func TestSimPFSReadWriteIndependent(t *testing.T) {
	prof := SimProfile{
		Name:             "test",
		WriteBytesPerSec: 1e9,
		ReadBytesPerSec:  1e9,
	}
	k := simnet.NewKernel(1)
	pfs := NewSimPFS(k, prof)
	const size = 100 << 20
	var tw, tr time.Duration
	k.Go("w", func(p *simnet.Proc) { pfs.Write(p, size); tw = p.Now() })
	k.Go("r", func(p *simnet.Proc) { pfs.Read(p, size); tr = p.Now() })
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// Reads and writes use separate pipes: both finish in ~100ms.
	if tw > 150*time.Millisecond || tr > 150*time.Millisecond {
		t.Fatalf("write %v read %v; pipes should be independent", tw, tr)
	}
	if pfs.BytesRead() != size {
		t.Fatalf("read %d", pfs.BytesRead())
	}
}
