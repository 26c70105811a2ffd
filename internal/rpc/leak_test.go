package rpc

import (
	"bufio"
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// waitBalance polls until every buffer leased from p has been returned
// (some releases run on writer/reader goroutines after the call
// completes) or fails after a deadline.
func waitBalance(t *testing.T, p *bufpool.Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Stats()
		if st.Gets == st.Puts {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool lease imbalance: %d gets vs %d puts", st.Gets, st.Puts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLeaseBalanceSuccessPath(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	startEcho(t, n, "echo")
	pool := bufpool.New()
	p := NewPool(n, WithFramePool(pool))
	defer p.Close()

	for _, size := range []int{0, 100, 64 << 10, 1 << 20} {
		value := bytes.Repeat([]byte{0x5A}, size)
		resp, err := p.Roundtrip("echo", &wire.Request{Op: wire.OpSet, Key: "k", Value: value})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Value, value) {
			t.Fatalf("size %d: echoed value mismatch", size)
		}
		resp.Release()
	}
	waitBalance(t, pool)
}

func TestLeaseBalanceValuePoolTransfer(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	startEcho(t, n, "echo")
	pool := bufpool.New()
	p := NewPool(n, WithFramePool(pool))
	defer p.Close()

	// Both an inlined (small) and a vectored (large) leased value must
	// flow back to the pool through the frame writer.
	for _, size := range []int{64, 512 << 10} {
		value := pool.GetRaw(size)
		resp, err := p.Roundtrip("echo", &wire.Request{
			Op: wire.OpSetChunk, Key: "k", Value: value, ValuePool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	waitBalance(t, pool)
}

func TestLeaseBalanceSendFailure(t *testing.T) {
	pool := bufpool.New()
	p := NewPool(transport.NewInproc(transport.Shape{}), WithFramePool(pool))
	defer p.Close()

	// Every failed send — dial errors first, then suspect fast-fails
	// once the failure threshold trips — must release the transferred
	// value lease.
	for i := 0; i < DefaultFailureThreshold+3; i++ {
		value := pool.GetRaw(1024)
		_, err := send(p, "nobody-home", &wire.Request{
			Op: wire.OpSet, Key: "k", Value: value, ValuePool: pool,
		}).wait()
		if err == nil {
			t.Fatal("send to unreachable server succeeded")
		}
	}
	waitBalance(t, pool)
}

// startMute runs a server that reads requests and answers only after
// delay — long past the client deadline, so responses arrive late.
func startMute(t *testing.T, network transport.Network, addr string, delay time.Duration) {
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
						_ = wire.WriteResponse(conn, &wire.Response{ID: req.ID, Status: wire.StatusOK,
							Value: bytes.Repeat([]byte{1}, 4096)})
					}()
				}
			}()
		}
	}()
}

func TestLeaseBalanceTimeoutThenLateResponse(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	startMute(t, n, "slow", 100*time.Millisecond)
	pool := bufpool.New()
	p := NewPool(n, WithFramePool(pool))
	defer p.Close()

	value := pool.GetRaw(2048)
	call := sendTimeout(p, "slow", &wire.Request{
		Op: wire.OpSet, Key: "k", Value: value, ValuePool: pool,
	}, 20*time.Millisecond)
	if _, err := call.wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	// The late response's pooled body must be released by the read
	// loop once it finds nobody waiting.
	waitBalance(t, pool)

	// And when thousands of responses race their deadlines, each body is
	// released exactly once whichever side wins: by the caller that got
	// it, or by the reader that found the call already timed out.
	storm := NewPool(n, WithFramePool(pool), withHealthPolicy(1<<30, DefaultProbeBase, DefaultProbeMax))
	defer storm.Close()
	raceDeadlines(t, storm, n, "edge")
	waitBalance(t, pool)
}

func TestLeaseBalanceConnectionTeardown(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	startMute(t, n, "mute", time.Hour)
	pool := bufpool.New()
	p := NewPool(n, WithFramePool(pool))

	var round Round
	calls := make([]Call, 8)
	p.Begin(&round)
	for i := range calls {
		value := pool.GetRaw(8192)
		round.Issue(&calls[i], "mute", &wire.Request{
			Op: wire.OpSet, Key: "k", Value: value, ValuePool: pool,
		})
	}
	p.Close() // tears the connection down with calls in flight
	round.Wait()
	for i := range calls {
		if _, err := calls[i].Result(); err == nil {
			t.Fatal("call survived pool close")
		}
	}
	waitBalance(t, pool)
}
