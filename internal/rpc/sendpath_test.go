package rpc

import (
	"sync"
	"testing"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// TestWriteErrorFailsPendingCallsUnavailable: when a send hits a write
// error, the calls already in flight on that connection must complete
// with an error IsUnavailable recognises — a raw transport error there
// would make the strategies skip failover.
func TestWriteErrorFailsPendingCallsUnavailable(t *testing.T) {
	n := transport.NewNetem(transport.NewInproc(transport.Shape{}))
	startStall(t, n, "cut")
	pool := bufpool.New()
	p := NewPool(n, WithFramePool(pool))
	defer p.Close()

	pending := make([]*inflight, 2)
	for i := range pending {
		pending[i] = send(p, "cut", &wire.Request{
			Op: wire.OpSetChunk, Key: "k", Value: pool.GetRaw(8192), ValuePool: pool,
		})
	}
	// The reader is parked in Read, so the dead link shows on the next
	// write: the send path is what tears the connection down.
	n.Cut("cut")
	// A failed write is the call's outcome, like any other.
	_, err := send(p, "cut", &wire.Request{
		Op: wire.OpSetChunk, Key: "k", Value: pool.GetRaw(8192), ValuePool: pool,
	}).wait()
	if !IsUnavailable(err) {
		t.Fatalf("send on a cut connection: %v", err)
	}
	for i, call := range pending {
		if _, err := call.wait(); !IsUnavailable(err) {
			t.Fatalf("in-flight call %d failed with %v, which IsUnavailable does not recognise", i, err)
		}
	}
	waitBalance(t, pool)
}

// wedgeNet dials connections whose Write blocks until the connection is
// closed — a peer whose receive window never opens. (Netem.Hang
// swallows writes instead, so it cannot wedge a sender.)
type wedgeNet struct {
	mu      sync.Mutex
	dials   int
	writing chan struct{} // one token per Write entered
}

func (n *wedgeNet) Listen(string) (transport.Listener, error) { return nil, transport.ErrAddrInUse }

func (n *wedgeNet) Dial(string) (transport.Conn, error) {
	n.mu.Lock()
	n.dials++
	n.mu.Unlock()
	return &wedgeConn{net: n, closed: make(chan struct{})}, nil
}

func (n *wedgeNet) dialCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dials
}

type wedgeConn struct {
	net    *wedgeNet
	once   sync.Once
	closed chan struct{}
}

func (c *wedgeConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, transport.ErrClosed
}

func (c *wedgeConn) Write([]byte) (int, error) {
	c.net.writing <- struct{}{}
	<-c.closed
	return 0, transport.ErrClosed
}

func (c *wedgeConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestDeadlineCoversBlockedSend: a caller stuck on the send side — its
// own write wedged — must get its deadline like any other, and the
// deadline must close the wedged connection so the write returns and
// the next send redials.
func TestDeadlineCoversBlockedSend(t *testing.T) {
	const timeout = 50 * time.Millisecond
	n := &wedgeNet{writing: make(chan struct{}, 16)}
	pool := bufpool.New()
	p := NewPool(n, WithCallTimeout(timeout), WithFramePool(pool))
	defer p.Close()
	send := func() error {
		_, err := send(p, "wedged", &wire.Request{
			Op: wire.OpSetChunk, Key: "k", Value: pool.GetRaw(8192), ValuePool: pool,
		}).wait()
		return err
	}

	// A second caller gets in line behind the wedged write; it is not
	// blocked, but its request never leaves either.
	behind := make(chan error, 1)
	go func() {
		<-n.writing
		behind <- send()
	}()
	start := time.Now()
	err := send()
	if elapsed := time.Since(start); elapsed > 2*timeout {
		t.Fatalf("blocked sender returned after %v, deadline was %v", elapsed, timeout)
	}
	if !IsUnavailable(err) {
		t.Fatalf("blocked sender got %v", err)
	}
	if err := <-behind; !IsUnavailable(err) {
		t.Fatalf("sender queued behind the wedged write got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*timeout {
		t.Fatalf("queued sender returned after %v, deadline was %v", elapsed, timeout)
	}

	// The wedged connection is gone: the next send dials a fresh one
	// (and wedges again — this network has no other kind).
	if err := send(); !IsUnavailable(err) {
		t.Fatalf("send after the wedge got %v", err)
	}
	if d := n.dialCount(); d != 2 {
		t.Fatalf("%d dials, want 2 (the wedged connection must be dropped, not reused)", d)
	}
	waitBalance(t, pool)
}
