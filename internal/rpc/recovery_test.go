package rpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// TestRecoveryHookFires drives a server through the full
// healthy -> suspect -> recovered cycle and asserts the registered
// recovery hook is invoked with the server's address — this is the
// signal the scrubber uses to kick an off-schedule anti-entropy cycle.
func TestRecoveryHookFires(t *testing.T) {
	netem := transport.NewNetem(transport.NewInproc(transport.Shape{}))
	p := NewPool(netem, withHealthPolicy(3, 10*time.Millisecond, 50*time.Millisecond))
	defer p.Close()

	var mu sync.Mutex
	var fired []string
	p.SetRecoveryHook(func(addr string) {
		mu.Lock()
		fired = append(fired, addr)
		mu.Unlock()
	})

	// Nothing listens on "flap" yet: trip the failure threshold.
	for i := 0; i < 3; i++ {
		if _, err := send(p, "flap", &wire.Request{Op: wire.OpPing, Key: "k"}).wait(); !errors.Is(err, ErrServerDown) {
			t.Fatalf("failure %d: got %v", i, err)
		}
	}
	if !p.Suspect("flap") {
		t.Fatal("server not suspect after threshold consecutive failures")
	}
	mu.Lock()
	early := len(fired)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("recovery hook fired %d times before any recovery", early)
	}

	// Bring the server up; a probe heals it and must fire the hook.
	startEcho(t, netem, "flap")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := p.Roundtrip("flap", &wire.Request{Op: wire.OpPing, Key: "k"}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("suspect server never recovered through probes")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The hook runs on the reader's goroutine before the waiter is
	// released (TestProbeSuccessClosesCircuitBeforeReturning).
	for {
		mu.Lock()
		got := append([]string(nil), fired...)
		mu.Unlock()
		if len(got) == 1 && got[0] == "flap" {
			return
		}
		if len(got) > 1 || time.Now().After(deadline) {
			t.Fatalf("recovery hook calls = %q, want exactly [flap]", got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProbeSuccessClosesCircuitBeforeReturning pins that a call's
// outcome reaches the health tracker before its caller wakes: the probe
// that finds a suspect server back returns with the circuit closed, so
// the caller's next call is admitted, not refused as "awaiting probe".
// The recovery hook runs inside that update and takes 30 ms here, so a
// waiter released first would return with the hook not yet run.
func TestProbeSuccessClosesCircuitBeforeReturning(t *testing.T) {
	netem := transport.NewNetem(transport.NewInproc(transport.Shape{}))
	p := NewPool(netem, withHealthPolicy(3, 10*time.Millisecond, 50*time.Millisecond))
	defer p.Close()
	var recovered atomic.Bool
	p.SetRecoveryHook(func(string) {
		time.Sleep(30 * time.Millisecond)
		recovered.Store(true)
	})
	for i := 0; i < 3; i++ {
		if _, err := send(p, "flap", &wire.Request{Op: wire.OpPing, Key: "k"}).wait(); !errors.Is(err, ErrServerDown) {
			t.Fatalf("failure %d: got %v", i, err)
		}
	}
	startEcho(t, netem, "flap")
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := p.Roundtrip("flap", &wire.Request{Op: wire.OpPing, Key: "k"})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("suspect server never recovered through probes: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !recovered.Load() || p.Suspect("flap") {
		t.Fatalf("the probe returned before its success was observed (hook run %v, suspect %v)", recovered.Load(), p.Suspect("flap"))
	}
	if _, err := p.Roundtrip("flap", &wire.Request{Op: wire.OpPing, Key: "k"}); err != nil {
		t.Fatalf("the call after a successful probe: %v", err)
	}
}

// TestRecoveryHookNotCalledWhenUnset is a guard against nil-func
// panics on the call-completion path.
func TestRecoveryHookNotCalledWhenUnset(t *testing.T) {
	netem := transport.NewNetem(transport.NewInproc(transport.Shape{}))
	p := NewPool(netem, withHealthPolicy(2, 5*time.Millisecond, 20*time.Millisecond))
	defer p.Close()

	for i := 0; i < 2; i++ {
		_, _ = send(p, "ghost", &wire.Request{Op: wire.OpPing, Key: "k"}).wait()
	}
	startEcho(t, netem, "ghost")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := p.Roundtrip("ghost", &wire.Request{Op: wire.OpPing, Key: "k"}); err == nil {
			return // recovered without a hook — no panic is the assertion
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
