package cluster

import (
	"runtime"
	"testing"
	"time"

	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// settle polls until the process-wide goroutine count equals want, and
// fails with the count it got stuck at otherwise. Exits are
// asynchronous (a reader notices its closed connection on its own
// time), so an equal count is awaited, never sampled once.
func settle(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want %d\n%s", what, got, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// baseline returns the goroutine count once it has stopped moving: an
// earlier test's goroutines may still be on their way out.
func baseline() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 20 {
		time.Sleep(time.Millisecond)
		if now := runtime.NumGoroutine(); now == n {
			same++
		} else {
			n, same = now, 0
		}
	}
	return n
}

// TestConnectionCostsTwoGoroutines pins the threading model's resource
// bill: a connection owns its two readers (client side and server side)
// and nothing else — no writer goroutines — and closing the pool and
// the cluster gives every goroutine back.
func TestConnectionCostsTwoGoroutines(t *testing.T) {
	idle := baseline()
	cl, err := Start(Config{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr := cl.Addrs()[0]
	serving := baseline()

	pool := rpc.NewPool(cl.Network())
	for i := 0; i < 3; i++ { // one dial, then reuse
		if _, err := pool.Roundtrip(addr, &wire.Request{Op: wire.OpPing, Key: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, "one open connection", serving+2)

	pool.Close()
	settle(t, "after Pool.Close", serving)
	cl.Close()
	settle(t, "after Cluster.Close", idle)
}
