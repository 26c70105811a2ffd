package core_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/store"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// countingNet is a fabric that counts the bytes written on it, both
// directions: the numerator of the benchmark's wire_bytes_per_user_byte.
type countingNet struct {
	transport.Network
	written atomic.Int64
}

func (n *countingNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{l, n}, nil
}

func (n *countingNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return countingConn{c, n}, nil
}

type countingListener struct {
	transport.Listener
	net *countingNet
}

func (l countingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.net}, nil
}

type countingConn struct {
	transport.Conn
	net *countingNet
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.net.written.Add(int64(n))
	return n, err
}

// TestWireBytesOfSmallECOps pins the fabric bytes of one healthy
// RS(3,2) Get and one Set of a 1 KB value, both directions: the framing
// the field encoding costs, checked without running the benchmark.
//
// A chunk of 1 024 bytes over K=3 is 344 bytes (8-byte aligned), 354
// with its 10-byte chunk record header; the chunk keys "wire-pin\x00c<i>"
// are 11 bytes; every connection has carried a few frames, so ids are
// one uvarint byte; the epoch is 1, one byte.
//
//   - Get: three get-chunk requests of 4 (frameLen) + 2 (op, mask) + 1
//     (id) + 1 (keyLen) + 1 (epoch) + 11 (key) = 20 bytes, and three
//     answers of 4 + 2 + 1 + 8 (stripe) + 354 = 369 bytes: 1 167.
//   - Set: five set-chunk requests of 4 + 2 + 1 + 1 + 1 + 8 (stripe) +
//     3 (geometry) + 2 (total length 1 024) + 11 + 354 = 387 bytes, and
//     five acks of 4 + 2 + 1 + 8 (the stripe written) = 15: 2 010.
//
// Under the fixed 54-byte request and 36-byte response headers the same
// two operations moved 1 395 and 2 325 bytes; under op-shaped headers
// with the 20-byte record header, 1 197 and 2 060.
func TestWireBytesOfSmallECOps(t *testing.T) {
	fabric := &countingNet{Network: transport.NewInproc(transport.Shape{})}
	cl, err := cluster.Start(cluster.Config{N: 5, Network: fabric})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2})
	value := bytes.Repeat([]byte("w"), 1<<10)
	// Dial every server and move past the first ids.
	for _, key := range []string{"warm-a", "warm-b"} {
		if err := c.Set(key, value); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}

	before := fabric.written.Load()
	if err := c.Set("wire-pin", value); err != nil {
		t.Fatal(err)
	}
	set := fabric.written.Load() - before
	before = fabric.written.Load()
	got, err := c.Get("wire-pin")
	if err != nil || !bytes.Equal(got, value) {
		t.Fatalf("Get: %v (value equal %v)", err, bytes.Equal(got, value))
	}
	get := fabric.written.Load() - before
	if get != 1167 || set != 2010 {
		t.Fatalf("a 1 KB Get moved %d bytes and a Set %d, want 1167 and 2010", get, set)
	}
}

// TestStoredBytesOfSmallECOps pins what one RS(3,2) Set of a 1 KB value
// leaves in the five stores: per chunk, its key, the 10-byte record
// header, the 344-byte shard and the store's per-item charge. With the
// 20-byte header that kept the stripe and the total length it was 50
// bytes more.
func TestStoredBytesOfSmallECOps(t *testing.T) {
	fabric := &countingNet{Network: transport.NewInproc(transport.Shape{})}
	cl, err := cluster.Start(cluster.Config{N: 5, Network: fabric})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2})
	const key = "stored-pin"
	if err := c.Set(key, bytes.Repeat([]byte("s"), 1<<10)); err != nil {
		t.Fatal(err)
	}
	var used int64
	for s := range cl.Addrs() {
		used += cl.Server(s).Store().UsedBytes()
	}
	if want := int64(5 * (len(wire.ChunkKey(key, 0)) + 10 + 344 + store.ItemOverhead)); used != want {
		t.Fatalf("the five stores hold %d bytes after a 1 KB Set, want %d", used, want)
	}
}
