package paced

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/metrics"
)

func keysN(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	return keys
}

// await fails the test unless ch delivers within a generous deadline.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never happened", what)
	}
}

func TestLoopRunsOnePassPerKickAndRestarts(t *testing.T) {
	reg := metrics.NewRegistry()
	passes := make(chan struct{}, 8)
	r := New(Config{Name: "unit", Metrics: reg}, func(<-chan struct{}) bool {
		passes <- struct{}{}
		return false
	})
	r.Kick() // before Start: held, not lost
	r.Kick() // folds into the pending one
	r.Start()
	r.Start() // no-op on a running Runner
	await(t, passes, "the pass kicked before Start")
	r.Stop()
	r.Stop() // no-op on a stopped Runner
	if n := len(passes); n != 0 {
		t.Fatalf("%d extra passes for two folded kicks", n)
	}

	r.Start()
	r.Kick()
	await(t, passes, "a pass after restart")
	r.Stop()
	if got := reg.Counter("ecstore_unit_kicks_total").Value(); got != 3 {
		t.Fatalf("kicks counter = %d, want 3", got)
	}
}

func TestLoopTicksWithoutKicks(t *testing.T) {
	passes := make(chan struct{}, 8)
	r := New(Config{Name: "unit", Interval: 10 * time.Millisecond}, func(<-chan struct{}) bool {
		passes <- struct{}{}
		return false
	})
	r.Start()
	defer r.Stop()
	await(t, passes, "the first timed pass")
	await(t, passes, "the second timed pass")
}

// A pass that asks for a retry runs again after retryAfter without
// anyone kicking it, and Stop does not wait that interval out.
func TestLoopRetriesAFailedPass(t *testing.T) {
	var n atomic.Int32
	passes := make(chan struct{}, 8)
	r := New(Config{Name: "unit"}, func(<-chan struct{}) bool {
		passes <- struct{}{}
		return n.Add(1) == 1 // only the first pass fails
	})
	r.Start()
	r.Kick()
	await(t, passes, "the kicked pass")
	start := time.Now()
	await(t, passes, "the retry of the failed pass")
	if waited := time.Since(start); waited < retryAfter/2 {
		t.Fatalf("retry came after %v, want about %v", waited, retryAfter)
	}
	r.Stop()
	if n := len(passes); n != 0 {
		t.Fatalf("%d passes after the retry succeeded", n)
	}

	r = New(Config{Name: "unit"}, func(<-chan struct{}) bool {
		passes <- struct{}{}
		return true
	})
	r.Start()
	r.Kick()
	await(t, passes, "the failing pass")
	start = time.Now()
	r.Stop()
	if took := time.Since(start); took > retryAfter/2 {
		t.Fatalf("Stop waited %v on a pending retry", took)
	}
}

func TestStopInterruptsAPassBetweenKeys(t *testing.T) {
	walked := make(chan int, 1)
	started := make(chan struct{}, 100)
	var r *Runner
	r = New(Config{Name: "unit", Rate: 20}, func(cancel <-chan struct{}) bool { // 50 ms per key
		walked <- r.Walk(keysN(100), cancel, func(string) { started <- struct{}{} })
		return false
	})
	r.Start()
	r.Kick()
	await(t, started, "the walk's first key")
	r.Stop() // returns once the pass has
	if n := <-walked; n == 0 || n >= 100 {
		t.Fatalf("stopped walk started %d of 100 keys", n)
	}
}

func TestWalkPacesBoundsAndVisitsEveryKey(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Config{Name: "unit", Rate: 200, MaxConcurrent: 2, Metrics: reg}, nil) // 5 ms per key
	var (
		mu            sync.Mutex
		seen          = map[string]int{}
		inFlight, max int
	)
	start := time.Now()
	n := r.Walk(keysN(9), nil, func(key string) {
		mu.Lock()
		seen[key]++
		inFlight++
		if inFlight > max {
			max = inFlight
		}
		mu.Unlock()
		time.Sleep(12 * time.Millisecond) // slower than the pace: calls overlap
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	took := time.Since(start)
	if n != 9 || len(seen) != 9 {
		t.Fatalf("walked %d keys, saw %d distinct", n, len(seen))
	}
	if max != 2 {
		t.Fatalf("%d calls in flight at once, want the bound of 2", max)
	}
	if took < 8*5*time.Millisecond {
		t.Fatalf("9 keys at 200/s took %v, want >= 40ms", took)
	}
	if got := reg.Counter("ecstore_unit_keys_scanned_total").Value(); got != 9 {
		t.Fatalf("keys scanned counter = %d", got)
	}

	// Unthrottled, with the default bound: every key, no pacing.
	r = New(Config{Name: "unit"}, nil)
	if n := r.Walk(keysN(50), nil, func(string) {}); n != 50 {
		t.Fatalf("unthrottled walk started %d of 50", n)
	}
}

func TestWalkStopsOnCancel(t *testing.T) {
	r := New(Config{Name: "unit"}, nil)
	closed := make(chan struct{})
	close(closed)
	if n := r.Walk(keysN(10), closed, func(string) { t.Error("call started after cancel") }); n != 0 {
		t.Fatalf("walk under a closed cancel started %d keys", n)
	}

	// Cancelled while waiting for the next key's slot: the wait ends at
	// once, and every call already started still finishes before Walk
	// returns.
	r = New(Config{Name: "unit", Rate: 2}, nil) // 500 ms per key
	cancel := make(chan struct{})
	var done atomic.Int32
	time.AfterFunc(30*time.Millisecond, func() { close(cancel) })
	start := time.Now()
	n := r.Walk(keysN(10), cancel, func(string) {
		time.Sleep(50 * time.Millisecond)
		done.Add(1)
	})
	if n != 1 || done.Load() != 1 {
		t.Fatalf("started %d, finished %d; want 1 and 1", n, done.Load())
	}
	if took := time.Since(start); took > 400*time.Millisecond {
		t.Fatalf("cancelled walk returned after %v: it slept out the pace", took)
	}
}

func TestCycleBookkeeping(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Config{Name: "unit", Metrics: reg}, nil)
	d := r.Cycle(func() {
		if got := reg.Gauge("ecstore_unit_in_progress").Value(); got != 1 {
			t.Errorf("in-progress gauge = %d during the cycle", got)
		}
		time.Sleep(2 * time.Millisecond)
	})
	if d < 2*time.Millisecond {
		t.Fatalf("cycle duration %v", d)
	}
	if got := reg.Gauge("ecstore_unit_in_progress").Value(); got != 0 {
		t.Fatalf("in-progress gauge = %d after the cycle", got)
	}
	snap := reg.Snapshot()
	if snap.Counter("ecstore_unit_cycles_total") != 1 || snap.Histograms["ecstore_unit_cycle_seconds"].Count != 1 {
		t.Fatalf("cycle series: %+v", snap)
	}
	r.Logf("discarded: %d", 1) // nil Config.Logf must not panic
}
