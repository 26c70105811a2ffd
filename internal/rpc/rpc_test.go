package rpc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// startEcho runs a minimal wire-speaking server that echoes request
// values back, each request answered from a goroutine of its own.
func startEcho(t *testing.T, network transport.Network, addr string) {
	t.Helper()
	startSlowEcho(t, network, addr, 0)
}

// startSlowEcho is startEcho answering each request delay after it
// arrived; the delays of requests in flight together overlap.
func startSlowEcho(t *testing.T, network transport.Network, addr string, delay time.Duration) {
	t.Helper()
	l, err := network.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				var mu sync.Mutex
				for {
					req, err := wire.ReadRequestPooled(br, nil)
					if err != nil {
						return
					}
					go func() {
						time.Sleep(delay)
						mu.Lock()
						defer mu.Unlock()
						_ = wire.WriteResponse(conn, &wire.Response{
							ID: req.ID, Status: wire.StatusOK, Value: req.Value,
						})
					}()
				}
			}()
		}
	}()
}

// inflight is a round of one between its issue and its outcome: what
// the tests hold where they need a call in flight rather than a
// Roundtrip.
type inflight struct {
	round Round
	call  Call
}

// send issues req to addr as a round of one under the pool's default
// deadline; sendTimeout under an explicit one.
func send(p *Pool, addr string, req *wire.Request) *inflight {
	return sendTimeout(p, addr, req, p.timeout)
}

func sendTimeout(p *Pool, addr string, req *wire.Request, timeout time.Duration) *inflight {
	f := new(inflight)
	p.BeginTimeout(&f.round, timeout)
	f.round.Issue(&f.call, addr, req)
	return f
}

// wait returns the call's outcome once it has one.
func (f *inflight) wait() (*wire.Response, error) {
	f.round.Wait()
	return f.call.Result()
}

func TestRoundtrip(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	startEcho(t, n, "echo")
	p := NewPool(n)
	defer p.Close()
	resp, err := p.Roundtrip("echo", &wire.Request{Op: wire.OpSet, Key: "k", Value: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Value) != "hello" {
		t.Fatalf("value %q", resp.Value)
	}
}

func TestManyInFlight(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	startEcho(t, n, "echo")
	p := NewPool(n)
	defer p.Close()
	const ops = 200
	// One round of 200 calls: one deadline, one wake-up.
	var round Round
	calls := make([]Call, ops)
	p.Begin(&round)
	for i := range calls {
		round.Issue(&calls[i], "echo", &wire.Request{
			Op: wire.OpSet, Key: "k", Value: []byte(fmt.Sprintf("v%d", i)),
		})
	}
	round.Wait()
	for i := range calls {
		resp, err := calls[i].Result()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%d", i); string(resp.Value) != want {
			t.Fatalf("call %d: got %q (response correlation broken)", i, resp.Value)
		}
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	startEcho(t, n, "echo")
	p := NewPool(n)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				want := []byte(fmt.Sprintf("g%d-i%d", g, i))
				resp, err := p.Roundtrip("echo", &wire.Request{Op: wire.OpSet, Key: "k", Value: want})
				if err != nil {
					t.Errorf("roundtrip: %v", err)
					return
				}
				if !bytes.Equal(resp.Value, want) {
					t.Errorf("got %q want %q", resp.Value, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDialFailure(t *testing.T) {
	p := NewPool(transport.NewInproc(transport.Shape{}))
	defer p.Close()
	if _, err := send(p, "nobody", &wire.Request{Op: wire.OpPing, Key: "k"}).wait(); !errors.Is(err, ErrServerDown) {
		t.Fatalf("got %v", err)
	}
}

func TestServerDiesMidCall(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	l, err := n.Listen("dead")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	p := NewPool(n)
	defer p.Close()
	call := send(p, "dead", &wire.Request{Op: wire.OpPing, Key: "k"})
	// Kill the server side without responding.
	select {
	case c := <-accepted:
		c.Close()
	case <-time.After(time.Second):
		t.Fatal("no connection accepted")
	}
	if _, err := call.wait(); !errors.Is(err, ErrServerDown) {
		t.Fatalf("got %v", err)
	}
	// The broken connection must be dropped so a later Send redials.
	l.Close()
	startEcho(t, n, "dead")
	if _, err := p.Roundtrip("dead", &wire.Request{Op: wire.OpPing, Key: "k"}); err != nil {
		t.Fatalf("redial: %v", err)
	}
}

func TestPoolClose(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	startEcho(t, n, "echo")
	p := NewPool(n)
	if _, err := p.Roundtrip("echo", &wire.Request{Op: wire.OpPing, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := send(p, "echo", &wire.Request{Op: wire.OpPing, Key: "k"}).wait(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestCallReady(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	startEcho(t, n, "echo")
	p := NewPool(n)
	defer p.Close()
	var c Call
	if c.Ready() {
		t.Fatal("fresh call is ready")
	}
	var round Round
	p.Begin(&round)
	round.Issue(&c, "echo", &wire.Request{Op: wire.OpPing, Key: "k"})
	round.Wait()
	if !c.Ready() {
		t.Fatal("completed call not ready")
	}
	if c.complete(&wire.Response{Status: wire.StatusNotFound}, nil) {
		t.Fatal("a second completion was delivered")
	}
	if resp, err := c.Result(); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("result changed after completion: %+v, %v", resp, err)
	}
}

func TestRoundtripMapsStatusErrors(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	l, err := n.Listen("nf")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			req, err := wire.ReadRequestPooled(br, nil)
			if err != nil {
				return
			}
			_ = wire.WriteResponse(conn, &wire.Response{ID: req.ID, Status: wire.StatusNotFound})
		}
	}()
	p := NewPool(n)
	defer p.Close()
	if _, err := p.Roundtrip("nf", &wire.Request{Op: wire.OpGet, Key: "k"}); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}
