package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// withHealthPolicy replaces the pool's health policy: threshold
// consecutive failures make a server suspect, and its probes back off
// from base to max. Outside this package the policy is fixed.
func withHealthPolicy(threshold int, base, max time.Duration) Option {
	return func(p *Pool) {
		p.pol = policy{threshold, base, max}
	}
}

// isDown reports whether p has addr down.
func isDown(p *Pool, addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.records[addr]
	return r != nil && r.down
}

// startStall runs a server that accepts connections and reads requests
// but never responds — the failure mode of a hung process.
func startStall(t *testing.T, network transport.Network, addr string) {
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
				for {
					if _, err := wire.ReadRequestPooled(br, nil); err != nil {
						return
					}
				}
			}()
		}
	}()
}

func TestCallTimeout(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	startStall(t, n, "hung")
	const timeout = 50 * time.Millisecond
	p := NewPool(n, WithCallTimeout(timeout))
	defer p.Close()
	start := time.Now()
	call := send(p, "hung", &wire.Request{Op: wire.OpPing, Key: "k"})
	if _, err := call.wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	} else if !IsUnavailable(err) {
		t.Fatal("ErrTimeout must satisfy IsUnavailable")
	} else if errors.Is(err, ErrServerDown) {
		t.Fatal("ErrTimeout must not wrap ErrServerDown (writes must not fail over on it)")
	}
	if elapsed := time.Since(start); elapsed > 20*timeout {
		t.Fatalf("timed-out call returned after %v", elapsed)
	}
}

func TestSendTimeoutOverridesDefault(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	startStall(t, n, "hung")
	// No pool-level deadline: only the per-call override bounds it.
	p := NewPool(n)
	defer p.Close()
	call := sendTimeout(p, "hung", &wire.Request{Op: wire.OpPing, Key: "k"}, 30*time.Millisecond)
	if _, err := call.wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
}

// TestLateResponseDoesNotCompleteLaterCall: a response arriving after
// its call's deadline must be dropped, not delivered to the timed-out
// call nor to any later call on the same connection.
func TestLateResponseDoesNotCompleteLaterCall(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	l, err := n.Listen("slow-once")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var served atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					req, err := wire.ReadRequestPooled(br, nil)
					if err != nil {
						return
					}
					if served.Add(1) == 1 {
						// First request: answer long after the caller's
						// deadline.
						time.Sleep(150 * time.Millisecond)
					}
					_ = wire.WriteResponse(conn, &wire.Response{
						ID: req.ID, Status: wire.StatusOK, Value: req.Value,
					})
				}
			}()
		}
	}()

	// High failure threshold: the timeout must not suspect the server
	// or drop the connection, so the late response really does arrive
	// on the same conn the second call uses.
	p := NewPool(n, withHealthPolicy(100, DefaultProbeBase, DefaultProbeMax))
	defer p.Close()

	first := sendTimeout(p, "slow-once", &wire.Request{
		Op: wire.OpGet, Key: "k", Value: []byte("first"),
	}, 30*time.Millisecond)
	if _, err := first.wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first call: got %v, want ErrTimeout", err)
	}

	resp, err := sendTimeout(p, "slow-once", &wire.Request{
		Op: wire.OpGet, Key: "k", Value: []byte("second"),
	}, 2*time.Second).wait()
	if err != nil {
		t.Fatalf("second call: %v", err)
	}
	if string(resp.Value) != "second" {
		t.Fatalf("second call got %q — late first response leaked into a later call", resp.Value)
	}
	// The late response must not have mutated the completed first call.
	if r, err := first.wait(); !errors.Is(err, ErrTimeout) || r != nil {
		t.Fatalf("first call changed after completion: resp=%v err=%v", r, err)
	}

	// The same, at scale and on the knife's edge: thousands of calls
	// whose responses land around their round's deadline, so the reader
	// and the deadline race for the same slots all the time.
	storm := NewPool(n, withHealthPolicy(1<<30, DefaultProbeBase, DefaultProbeMax))
	defer storm.Close()
	raceDeadlines(t, storm, n, "edge")
	// A call leaves the pending table when it is answered or when its
	// deadline forgets it, so once every round is over nothing is left —
	// not even the entries of calls whose late answers are still on
	// their way.
	storm.mu.Lock()
	mc := storm.conns["edge"]
	storm.mu.Unlock()
	if mc != nil {
		mc.mu.Lock()
		left := len(mc.pending)
		mc.mu.Unlock()
		if left != 0 {
			t.Fatalf("%d calls still pending after every round ended", left)
		}
	}
}

// raceDeadlines drives 20 000 calls through one connection of p to an
// echo server it starts at addr, in rounds of four from eight
// goroutines. The server answers every request after the same short
// delay, and each goroutine steers its deadline toward the point where
// half of its rounds time out — so responses keep landing around the
// deadline whatever the host's speed. Every call carries a key of its
// own as its value, which the echo returns. It fails the test unless
// every call ends in exactly one of: its own key back, or ErrTimeout no
// earlier than the round's deadline — never another call's bytes, never
// a deadline that came early (a firing left over from the round before).
// The one other outcome tolerated is the documented one of a deadline
// that finds a frame still unsent: the connection is closed ("send
// stalled") and its calls fail as unavailable.
//
// (The delay is the server's, not transport.Netem.Delay's: that one
// sleeps once per delivery on the connection's reader, and 20 000
// deliveries in a row would take the test half a minute.)
func raceDeadlines(t *testing.T, p *Pool, network transport.Network, addr string) {
	t.Helper()
	raceRounds(t, p, network, addr, nil)
}

// TestPooledRoundsIgnoreLeftoverFirings is raceDeadlines with rounds
// that pass between goroutines through a sync.Pool, as core's
// operations pass theirs: a round's timer, armed by one sender, is
// re-armed by whichever sender draws the round next, under a deadline
// of its own, while a firing of the first deadline may still be on its
// way. Such a leftover must find a deadline still ahead and do nothing;
// without that check in Round.fire (`time.Now().Before(r.deadline)`) it
// expires the next sender's round early, which raceRounds reports.
func TestPooledRoundsIgnoreLeftoverFirings(t *testing.T) {
	n := transport.NewInproc(transport.Shape{})
	p := NewPool(n, withHealthPolicy(1<<30, DefaultProbeBase, DefaultProbeMax))
	defer p.Close()
	rounds := sync.Pool{New: func() any { return new(Round) }}
	raceRounds(t, p, n, "pooled-edge", &rounds)
}

// raceRounds is raceDeadlines drawing each round from rounds and putting
// it back once waited out, or — with rounds nil — beginning one round
// per goroutine again and again.
func raceRounds(t *testing.T, p *Pool, network transport.Network, addr string, rounds *sync.Pool) {
	t.Helper()
	const (
		senders   = 8
		perRound  = 4
		perSender = 20000 / senders / perRound // rounds per sender
		delay     = 500 * time.Microsecond
		minBudget = delay / 2
	)
	startSlowEcho(t, network, addr, delay)
	var answered, timedOut, stalled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var own Round // begun again and again with fresh slots
			budget := 2 * delay
			for r := 0; r < perSender; r++ {
				round := &own
				if rounds != nil {
					round = rounds.Get().(*Round)
				}
				calls := make([]Call, perRound)
				start := time.Now()
				p.BeginTimeout(round, budget)
				for i := range calls {
					key := fmt.Sprintf("g%d-r%d-c%d", g, r, i)
					round.Issue(&calls[i], addr, &wire.Request{Op: wire.OpSet, Key: key, Value: []byte(key)})
				}
				round.Wait()
				elapsed := time.Since(start)
				if rounds != nil {
					rounds.Put(round)
				}
				late := false
				for i := range calls {
					want := fmt.Sprintf("g%d-r%d-c%d", g, r, i)
					resp, err := calls[i].Result()
					switch {
					case err == nil && string(resp.Value) == want:
						answered.Add(1)
					case err == nil:
						t.Errorf("call %s was handed %q", want, resp.Value)
					case errors.Is(err, ErrTimeout):
						timedOut.Add(1)
						late = true
						if elapsed < budget {
							t.Errorf("call %s timed out after %v of a %v deadline", want, elapsed, budget)
						}
					case errors.Is(err, ErrServerDown):
						stalled.Add(1)
					default:
						t.Errorf("call %s ended with %v", want, err)
					}
					if resp, err := calls[i].Result(); err == nil {
						resp.Release()
					}
				}
				// Steer toward the edge: a round that timed out gets more
				// time, one that did not gets less.
				if late {
					budget += budget / 16
				} else if budget > minBudget {
					budget -= budget / 16
				}
			}
		}(g)
	}
	wg.Wait()
	a, o, s := answered.Load(), timedOut.Load(), stalled.Load()
	t.Logf("%d calls: %d answered, %d timed out, %d on a connection closed as stalled", a+o+s, a, o, s)
	if a == 0 || o == 0 {
		t.Fatalf("the race was not run: %d answered, %d timed out", a, o)
	}
}

func TestSuspectFailsFastAndProbesRecover(t *testing.T) {
	netem := transport.NewNetem(transport.NewInproc(transport.Shape{}))
	p := NewPool(netem, withHealthPolicy(3, 10*time.Millisecond, 50*time.Millisecond))
	defer p.Close()

	// Nothing is listening on "flap": every dial fails.
	for i := 0; i < 3; i++ {
		if _, err := send(p, "flap", &wire.Request{Op: wire.OpPing, Key: "k"}).wait(); !errors.Is(err, ErrServerDown) {
			t.Fatalf("failure %d: got %v", i, err)
		}
	}
	if !isDown(p, "flap") {
		t.Fatal("server not down after threshold consecutive failures")
	}

	// While suspect and before the probe window opens, requests fail
	// fast without a dial.
	dials := netem.DialCount("flap")
	for i := 0; i < 10; i++ {
		if _, err := send(p, "flap", &wire.Request{Op: wire.OpPing, Key: "k"}).wait(); !errors.Is(err, ErrServerDown) {
			t.Fatalf("suspect send: got %v", err)
		}
	}
	if got := netem.DialCount("flap"); got != dials {
		t.Fatalf("suspect server dialed %d more times during the fast-fail window", got-dials)
	}

	// Bring the server up; a probe admitted after the window heals it.
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
	if isDown(p, "flap") {
		t.Fatal("server still down after a successful probe")
	}
}

func TestHealthProbeWindow(t *testing.T) {
	r := &record{}
	base, max := 20*time.Millisecond, 80*time.Millisecond
	pol := policy{3, base, max}
	boom := errors.New("boom")
	observe := func(err error) (toDown, recovered bool) { return r.observe(time.Now(), time.Now(), err, pol) }

	if toDown, _ := observe(boom); toDown {
		t.Fatal("single failure must not take the server down")
	}
	if r.down {
		t.Fatal("below threshold: must stay up")
	}
	observe(boom)
	if toDown, _ := observe(boom); !toDown {
		t.Fatal("threshold failure must report the down transition")
	}
	if !r.down {
		t.Fatal("at threshold: must be down")
	}

	// Exactly one request is admitted per probe window.
	now := r.nextProbe
	if !r.admit(now, pol) {
		t.Fatal("probe not admitted once the window opened")
	}
	if r.admit(now, pol) {
		t.Fatal("second request admitted inside the same probe window")
	}
	// The backoff doubles but stays capped.
	if r.probeWait > max {
		t.Fatalf("probe backoff %v exceeds cap %v", r.probeWait, max)
	}

	// A success heals the record completely and reports the recovery.
	if _, recovered := observe(nil); !recovered {
		t.Fatal("successful probe of a down server must report recovery")
	}
	if r.down {
		t.Fatal("success must bring the server back")
	}
	if !r.admit(now, pol) {
		t.Fatal("a server that is up must admit freely")
	}
	if toDown, recovered := observe(boom); toDown || recovered {
		t.Fatal("failure streak must restart after recovery")
	}
}

// TestHealthIgnoresFailuresFromBeforeARecovery pins that a call which
// started before the latest success cannot count against the server
// when it fails afterwards: three timeouts of requests sent while a
// server was hung, arriving after a probe found it back, must not
// re-open the circuit; failures of calls started after the success do.
func TestHealthIgnoresFailuresFromBeforeARecovery(t *testing.T) {
	r := &record{}
	pol := policy{3, 20 * time.Millisecond, time.Second}
	boom := errors.New("boom")
	t0 := time.Now()
	at := func(d time.Duration) time.Time { return t0.Add(d * time.Millisecond) }
	observe := func(start time.Time, err error) (toDown, recovered bool) { return r.observe(at(20), start, err, pol) }

	for i := 1; i <= 3; i++ {
		observe(at(time.Duration(i)), boom)
	}
	if !r.down {
		t.Fatal("three failures must take the server down")
	}
	if _, recovered := observe(at(10), nil); !recovered {
		t.Fatal("the successful probe must report the recovery")
	}
	// Late failures of calls issued before the probe.
	for i := 4; i <= 9; i++ {
		if toDown, _ := observe(at(time.Duration(i)), boom); toDown {
			t.Fatalf("failure of a call started at %dms re-opened the circuit", i)
		}
	}
	if r.down || r.fails != 0 {
		t.Fatalf("after stale failures: down %v, %d failures counted; want up, 0", r.down, r.fails)
	}
	// A success of an older call does not move the mark back.
	observe(at(5), nil)
	if toDown, _ := observe(at(9), boom); toDown || r.fails != 0 {
		t.Fatalf("an older success moved the mark back: %d failures counted", r.fails)
	}
	for i := 11; i <= 12; i++ {
		if toDown, _ := observe(at(time.Duration(i)), boom); toDown {
			t.Fatal("down before the threshold")
		}
	}
	if toDown, _ := observe(at(13), boom); !toDown {
		t.Fatal("three failures of calls started after the success must take the server down")
	}
}
