package scrub

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/membership"
	"ecstore/internal/metrics"
)

// await fails the test unless ch delivers within a generous deadline.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never happened", what)
		panic("unreachable")
	}
}

func reportsTo(ch chan Report) func(Report) { return func(r Report) { ch <- r } }

func TestLoopRunsOnePassPerKickAndRestarts(t *testing.T) {
	reg := metrics.NewRegistry()
	passes := make(chan Report, 8)
	d := newDaemon(t, Config{Client: newFake(1), Interval: -1, Metrics: reg, OnCycle: reportsTo(passes)})
	d.Kick() // before Start: held, not lost
	d.Kick() // folds into the pending one
	d.Start()
	d.Start() // no-op on a running daemon
	await(t, passes, "the pass kicked before Start")
	d.Stop()
	d.Stop() // no-op on a stopped daemon
	if n := len(passes); n != 0 {
		t.Fatalf("%d extra passes for two folded kicks", n)
	}

	d.Start()
	d.Kick()
	await(t, passes, "a pass after restart")
	d.Stop()
	if got := reg.Counter("ecstore_scrub_kicks_total").Value(); got != 3 {
		t.Fatalf("kicks counter = %d, want 3", got)
	}
}

// With no kicks at all, the timer alone runs passes, and none of them
// counts as a kick.
func TestLoopTicksWithoutKicks(t *testing.T) {
	reg := metrics.NewRegistry()
	passes := make(chan Report, 8)
	d := newDaemon(t, Config{Client: newFake(1), Interval: 10 * time.Millisecond, Rate: -1, Metrics: reg, OnCycle: reportsTo(passes)})
	d.Start()
	await(t, passes, "the first timed pass")
	await(t, passes, "the second timed pass")
	d.Stop()
	if got := reg.Counter("ecstore_scrub_kicks_total").Value(); got != 0 {
		t.Fatalf("kicks counter = %d after timed passes only", got)
	}
}

// A pass that leaves a source pending runs again after retryAfter
// without anyone kicking it — the retry is not counted as a kick — and
// Stop does not wait that interval out.
func TestLoopRetriesAFailedPass(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFake(3)
	f.failKeys["k001"] = errors.New("holder down")
	var passes atomic.Int32
	reports := make(chan Report, 8)
	d := newDaemon(t, Config{Client: f, Interval: -1, Rate: -1, Metrics: reg, OnCycle: func(r Report) {
		if passes.Add(1) == 1 { // only the first pass fails
			f.mu.Lock()
			delete(f.failKeys, "k001")
			f.mu.Unlock()
		}
		reports <- r
	}})
	d.Enqueue(oldView())
	d.Start()
	d.Kick()
	if r := await(t, reports, "the kicked pass"); r.Failed != 1 || d.Pending() != 1 {
		t.Fatalf("first pass %s, pending %d", r, d.Pending())
	}
	start := time.Now()
	if r := await(t, reports, "the retry of the failed pass"); r.Failed != 0 || r.Sources != 1 || d.Pending() != 0 {
		t.Fatalf("retry %s, pending %d", r, d.Pending())
	}
	if waited := time.Since(start); waited < retryAfter/2 {
		t.Fatalf("retry came after %v, want about %v", waited, retryAfter)
	}
	d.Stop()
	if n := len(reports); n != 0 {
		t.Fatalf("%d passes after the retry succeeded", n)
	}
	if got := reg.Counter("ecstore_scrub_kicks_total").Value(); got != 1 {
		t.Fatalf("kicks counter = %d, want the 1 external kick", got)
	}

	f.failKeys["k001"] = errors.New("holder down for good")
	d = newDaemon(t, Config{Client: f, Interval: -1, Rate: -1, OnCycle: reportsTo(reports)})
	d.Enqueue(oldView())
	d.Start()
	d.Kick()
	await(t, reports, "the failing pass")
	start = time.Now()
	d.Stop()
	if took := time.Since(start); took > retryAfter/2 {
		t.Fatalf("Stop waited %v on a pending retry", took)
	}
}

func TestStopInterruptsAPassBetweenKeys(t *testing.T) {
	f := newFake(100)
	started := make(chan struct{}, 100)
	f.verify = func(string) (bool, error) {
		started <- struct{}{}
		return true, nil
	}
	passes := make(chan Report, 1)
	d := newDaemon(t, Config{Client: f, Interval: -1, Rate: 20, OnCycle: reportsTo(passes)}) // 50 ms per key
	d.Start()
	d.Kick()
	await(t, started, "the walk's first key")
	d.Stop() // returns once the pass has
	if r := <-passes; r.Scanned == 0 || r.Scanned >= 100 {
		t.Fatalf("stopped walk started %d of 100 keys", r.Scanned)
	}
}

func TestWalkPacesBoundsAndVisitsEveryKey(t *testing.T) {
	reg := metrics.NewRegistry()
	d := newDaemon(t, Config{Client: newFake(0), Rate: 200, MaxConcurrent: 2, Metrics: reg}) // 5 ms per key
	var (
		mu            sync.Mutex
		seen          = map[string]int{}
		inFlight, max int
	)
	start := time.Now()
	sum := d.walk(newFake(9).keys, nil, nil, func(key string) Report {
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
		return Report{Healthy: 1, BytesMoved: 2}
	})
	took := time.Since(start)
	if sum.Scanned != 9 || len(seen) != 9 {
		t.Fatalf("walked %d keys, saw %d distinct", sum.Scanned, len(seen))
	}
	if sum.Healthy != 9 || sum.BytesMoved != 18 {
		t.Fatalf("per-key reports summed to %+v", sum)
	}
	if max != 2 {
		t.Fatalf("%d calls in flight at once, want the bound of 2", max)
	}
	if took < 8*5*time.Millisecond {
		t.Fatalf("9 keys at 200/s took %v, want >= 40ms", took)
	}
	if got := reg.Counter("ecstore_scrub_keys_scanned_total").Value(); got != 9 {
		t.Fatalf("keys scanned counter = %d", got)
	}

	// Unthrottled, with the default bound: every key, no pacing.
	d = newDaemon(t, Config{Client: newFake(0), Rate: -1})
	if sum := d.walk(newFake(50).keys, nil, nil, func(string) Report { return Report{} }); sum.Scanned != 50 {
		t.Fatalf("unthrottled walk started %d of 50", sum.Scanned)
	}
}

func TestWalkStopsOnCancel(t *testing.T) {
	d := newDaemon(t, Config{Client: newFake(0), Rate: -1})
	closed := make(chan struct{})
	close(closed)
	if sum := d.walk(newFake(10).keys, closed, nil, func(string) Report {
		t.Error("call started after cancel")
		return Report{}
	}); sum.Scanned != 0 {
		t.Fatalf("walk under a closed cancel started %d keys", sum.Scanned)
	}

	// Cancelled while waiting for the next key's slot: the wait ends at
	// once, and every call already started still finishes before walk
	// returns.
	d = newDaemon(t, Config{Client: newFake(0), Rate: 2}) // 500 ms per key
	cancel := make(chan struct{})
	var done atomic.Int32
	time.AfterFunc(30*time.Millisecond, func() { close(cancel) })
	start := time.Now()
	sum := d.walk(newFake(10).keys, cancel, nil, func(string) Report {
		time.Sleep(50 * time.Millisecond)
		done.Add(1)
		return Report{}
	})
	if sum.Scanned != 1 || done.Load() != 1 {
		t.Fatalf("started %d, finished %d; want 1 and 1", sum.Scanned, done.Load())
	}
	if took := time.Since(start); took > 400*time.Millisecond {
		t.Fatalf("cancelled walk returned after %v: it slept out the pace", took)
	}
}

func TestCycleBookkeeping(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFake(1)
	f.verify = func(string) (bool, error) {
		if got := reg.Gauge("ecstore_scrub_in_progress").Value(); got != 1 {
			t.Errorf("in-progress gauge = %d during the cycle", got)
		}
		time.Sleep(2 * time.Millisecond)
		return true, nil
	}
	d := newDaemon(t, Config{Client: f, Rate: -1, Metrics: reg})
	if r := d.RunCycle(nil); r.Duration < 2*time.Millisecond {
		t.Fatalf("cycle duration %v", r.Duration)
	}
	if got := reg.Gauge("ecstore_scrub_in_progress").Value(); got != 0 {
		t.Fatalf("in-progress gauge = %d after the cycle", got)
	}
	snap := reg.Snapshot()
	if snap.Counter("ecstore_scrub_cycles_total") != 1 || snap.Histograms["ecstore_scrub_cycle_seconds"].Count != 1 {
		t.Fatalf("cycle series: %+v", snap)
	}
	d.logf("discarded: %d", 1) // nil Config.Logf must not panic
}

func TestRunCycleDrainsSource(t *testing.T) {
	f := newFake(5)
	f.reports["k001"] = core.MigrateReport{Moved: true, Refilled: 2, Dropped: 1, BytesMoved: 100}
	d := newDaemon(t, Config{Client: f, Rate: -1})
	d.Enqueue(oldView())
	rep := d.RunCycle(nil)
	if rep.Sources != 1 || rep.Scanned != 5 || rep.Err != nil {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Moved != 1 || rep.Refilled != 2 || rep.Dropped != 1 || rep.BytesMoved != 100 {
		t.Fatalf("per-key aggregation: %+v", rep)
	}
	if d.Pending() != 0 {
		t.Fatalf("pending = %d after clean cycle", d.Pending())
	}
	if _, _, migrated := f.calls(); migrated != 5 {
		t.Fatalf("migrated %d keys, want 5", migrated)
	}
}

func TestEnqueueDedupAndBound(t *testing.T) {
	d := newDaemon(t, Config{Client: newFake(0), Rate: -1})
	v := oldView()
	d.Enqueue(v)
	d.Enqueue(v) // same epoch: deduplicated
	if d.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", d.Pending())
	}
	for e := uint64(2); e < 20; e++ {
		d.Enqueue(membership.View{Epoch: e, Servers: v.Servers})
	}
	if d.Pending() != maxPendingSources {
		t.Fatalf("pending = %d, want bound %d", d.Pending(), maxPendingSources)
	}
}

func TestFailedSourceStaysQueued(t *testing.T) {
	f := newFake(3)
	f.failKeys["k001"] = errors.New("holder down")
	d := newDaemon(t, Config{Client: f, Rate: -1})
	d.Enqueue(oldView())
	rep := d.RunCycle(nil)
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
	if d.Pending() != 1 {
		t.Fatal("failed source was dequeued")
	}
	// The holder recovers; the retry cycle drains the source.
	f.mu.Lock()
	delete(f.failKeys, "k001")
	f.mu.Unlock()
	rep = d.RunCycle(nil)
	if rep.Failed != 0 || d.Pending() != 0 {
		t.Fatalf("retry: failed=%d pending=%d", rep.Failed, d.Pending())
	}
}

func TestAbsentKeyIsNotFailure(t *testing.T) {
	f := newFake(2)
	// A key deleted between scan and migrate is convergence, not error.
	f.failKeys["k000"] = core.ErrNotFound
	d := newDaemon(t, Config{Client: f, Rate: -1})
	d.Enqueue(oldView())
	rep := d.RunCycle(nil)
	if rep.Failed != 0 || rep.Err != nil || d.Pending() != 0 {
		t.Fatalf("report = %+v pending = %d", rep, d.Pending())
	}
}

func TestScanErrorStaysQueued(t *testing.T) {
	f := newFake(3)
	f.scanErr = errors.New("cluster unreachable")
	d := newDaemon(t, Config{Client: f, Rate: -1})
	d.Enqueue(oldView())
	rep := d.RunCycle(nil)
	if rep.Err == nil || rep.Sources != 1 || d.Pending() != 1 {
		t.Fatalf("report %s, pending=%d", rep, d.Pending())
	}
}

func TestCancelKeepsSource(t *testing.T) {
	f := newFake(100)
	d := newDaemon(t, Config{Client: f, Rate: -1})
	d.Enqueue(oldView())
	cancel := make(chan struct{})
	close(cancel)
	rep := d.RunCycle(cancel)
	if rep.Scanned != 0 {
		t.Fatalf("scanned = %d with pre-closed cancel", rep.Scanned)
	}
	if d.Pending() != 1 {
		t.Fatal("canceled source was dequeued")
	}
}

func TestViewChangeQueuesSource(t *testing.T) {
	f := newFake(1)
	d := newDaemon(t, Config{Client: f, Rate: -1})
	if f.onChange == nil {
		t.Fatal("view-change hook not registered")
	}
	f.onChange(oldView(), f.view)
	if d.Pending() != 1 {
		t.Fatalf("pending = %d after view change", d.Pending())
	}
}

// TestNewRegistersHooks: New needs a client, and on one it registers
// both hooks — a recovery kicks, a view change queues the old view and
// kicks.
func TestNewRegistersHooks(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil client")
	}
	reg := metrics.NewRegistry()
	f := newFake(1)
	d := newDaemon(t, Config{Client: f, Rate: -1, Metrics: reg})
	if f.recoveredFn == nil || f.onChange == nil {
		t.Fatal("New left a hook unregistered")
	}
	f.recoveredFn("a:1")
	if got := reg.Counter("ecstore_scrub_kicks_total").Value(); got != 1 || d.Pending() != 0 {
		t.Fatalf("after a recovery: kicks = %d, pending = %d", got, d.Pending())
	}
	f.onChange(oldView(), f.view)
	if got := reg.Counter("ecstore_scrub_kicks_total").Value(); got != 2 || d.Pending() != 1 {
		t.Fatalf("after a view change: kicks = %d, pending = %d", got, d.Pending())
	}
}

// TestRateBudget: a drain pass spends the same keys/sec budget as a
// scrub — 5 keys at 100 keys/s leave 4 gaps due at 10ms spacing.
func TestRateBudget(t *testing.T) {
	f := newFake(5)
	d := newDaemon(t, Config{Client: f, Rate: 100})
	d.Enqueue(oldView())
	rep := d.RunCycle(nil)
	if rep.Sources != 1 || rep.Scanned != 5 {
		t.Fatalf("drain report %+v", rep)
	}
	if rep.Duration < 35*time.Millisecond {
		t.Fatalf("drain took %v; rate budget not applied", rep.Duration)
	}
}

func TestStartStopAndKick(t *testing.T) {
	f := newFake(4)
	cycles := make(chan Report, 4)
	d := newDaemon(t, Config{Client: f, Rate: -1, OnCycle: reportsTo(cycles)})
	d.Start()
	d.Start() // idempotent
	defer d.Stop()

	f.onChange(oldView(), f.view)
	if rep := await(t, cycles, "a pass after the view-change kick"); rep.Sources != 1 || rep.Scanned != 4 || rep.Err != nil {
		t.Fatalf("cycle report = %+v", rep)
	}
	if d.Pending() != 0 {
		t.Fatalf("pending = %d", d.Pending())
	}
	d.Stop()
	d.Stop() // idempotent
}

func TestMetricsCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFake(3)
	f.reports["k000"] = core.MigrateReport{Moved: true, Refilled: 1, Dropped: 2, BytesMoved: 64}
	f.failKeys["k002"] = errors.New("holder down")
	d := newDaemon(t, Config{Client: f, Rate: -1, Metrics: reg})
	d.Enqueue(oldView())
	d.Kick()
	_ = d.RunCycle(nil)
	snap := reg.Snapshot()
	checks := map[string]int64{
		"ecstore_scrub_keys_scanned_total":       3,
		"ecstore_scrub_cycles_total":             1,
		"ecstore_scrub_kicks_total":              1,
		"ecstore_migration_keys_moved_total":     1,
		"ecstore_migration_keys_failed_total":    1,
		"ecstore_migration_refills_total":        1,
		"ecstore_migration_chunks_dropped_total": 2,
		"ecstore_migration_bytes_moved_total":    64,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("ecstore_migration_pending_sources").Value(); got != 1 {
		t.Errorf("pending gauge = %d, want 1", got)
	}
}

// TestPassDrainsBeforeScrubbing: while a source is pending, RunCycle
// and kicked passes only drain. A timed pass drains, then scrubs every
// key but the one that cannot move (its departed holder never answers),
// so one stuck source does not stop anti-entropy for the rest; that
// scrub skipped a key, so it does not count as completed. Once the
// source drains, the next pass scrubs every key.
func TestPassDrainsBeforeScrubbing(t *testing.T) {
	reg := metrics.NewRegistry()
	gauge := reg.Gauge("ecstore_scrub_last_completed_unix")
	f := newFake(3)
	f.failKeys["k001"] = errors.New("departed holder unreachable")
	f.verify = func(string) (bool, error) { return false, nil } // every scrubbed key is repaired too
	f.repair = func(string) (core.RepairReport, error) { return core.RepairReport{Missing: 1, Rewritten: 1}, nil }
	reports := make(chan Report, 64)
	d := newDaemon(t, Config{Client: f, Interval: -1, Rate: -1, Metrics: reg, OnCycle: reportsTo(reports)})
	d.Enqueue(oldView())
	for i := 0; i < 3; i++ {
		if r := d.RunCycle(nil); r.Sources != 1 || r.Failed != 1 || r.Scanned != 3 || r.Repaired != 0 {
			t.Fatalf("RunCycle %d: %s", i, r)
		}
	}
	d.Start()
	d.Kick()
	for i := 0; i < 2; i++ { // the kicked pass, then the loop's retry
		if r := await(t, reports, "a background pass"); r.Sources != 1 || r.Failed != 1 || r.Repaired != 0 {
			t.Fatalf("untimed pass %d: %s", i, r)
		}
	}
	d.Stop()
	if verified, repaired, _ := f.calls(); verified != 0 || repaired != 0 {
		t.Fatalf("%d Verify and %d Repair calls from untimed passes with a source pending", verified, repaired)
	}

	d = newDaemon(t, Config{Client: f, Interval: 5 * time.Millisecond, Rate: -1, Metrics: reg, OnCycle: reportsTo(reports)})
	d.Enqueue(oldView())
	d.Start()
	deadline := time.Now().Add(5 * time.Second)
	for timed := 0; timed < 2; {
		r := await(t, reports, "a timed pass")
		if r.Repaired == 0 && time.Now().Before(deadline) {
			continue // a retry: drains only
		}
		if r.Sources != 1 || r.Failed != 1 || r.Repaired != 2 || r.Scanned != 5 {
			t.Fatalf("timed pass: %s", r)
		}
		timed++
	}
	d.Stop()
	f.mu.Lock()
	for _, k := range append(f.verified, f.repaired...) {
		if k == "k001" {
			t.Errorf("%s scrubbed while its migration was pending", k)
		}
	}
	f.mu.Unlock()
	if gauge.Value() != 0 || d.Pending() != 1 {
		t.Fatalf("last-completed gauge %d, pending %d after scrubs that skipped a key", gauge.Value(), d.Pending())
	}

	f.mu.Lock()
	delete(f.failKeys, "k001")
	f.mu.Unlock()
	if r := d.RunCycle(nil); r.Sources != 1 || r.Failed != 0 || d.Pending() != 0 {
		t.Fatalf("draining pass: %s, pending %d", r, d.Pending())
	}
	if r := d.RunCycle(nil); r.Sources != 0 || r.Repaired != 3 || gauge.Value() == 0 {
		t.Fatalf("pass after the drain: %s, gauge %d", r, gauge.Value())
	}
}

// TestFailedKeyHoldsLaterSources: a key that fails to move from the
// oldest source is not migrated from a newer one, so both stay queued;
// every other key moves from both in the same pass.
func TestFailedKeyHoldsLaterSources(t *testing.T) {
	f := newFake(3)
	f.failKeys["k001"] = errors.New("holder down")
	d := newDaemon(t, Config{Client: f, Rate: -1})
	d.Enqueue(membership.View{Epoch: 0, Servers: []string{"a:1"}})
	d.Enqueue(oldView())
	if r := d.RunCycle(nil); r.Sources != 2 || r.Scanned != 5 || r.Failed != 1 || d.Pending() != 2 {
		t.Fatalf("pass %s, pending %d", r, d.Pending())
	}
	f.mu.Lock()
	delete(f.failKeys, "k001")
	f.mu.Unlock()
	if r := d.RunCycle(nil); r.Sources != 2 || r.Scanned != 6 || r.Failed != 0 || d.Pending() != 0 {
		t.Fatalf("retry %s, pending %d", r, d.Pending())
	}
}

// TestQueuedSourceCutsScrubShort: a view change mid-scrub stops the
// scrub walk between keys — the cut scrub does not count as completed —
// and the loop starts draining long before the walk would have ended.
func TestQueuedSourceCutsScrubShort(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFake(50)
	started := make(chan struct{}, 50)
	f.verify = func(string) (bool, error) {
		started <- struct{}{}
		return true, nil
	}
	reports := make(chan Report, 8)
	d := newDaemon(t, Config{Client: f, Interval: -1, Rate: 25, Metrics: reg, OnCycle: reportsTo(reports)}) // a 2 s walk
	d.Start()
	defer d.Stop()
	d.Kick()
	await(t, started, "the scrub's first key")
	queuedAt := time.Now()
	f.onChange(oldView(), f.view)
	if r := await(t, reports, "the cut scrub"); r.Sources != 0 || r.Scanned == 0 || r.Scanned >= 50 {
		t.Fatalf("scrub with a source queued mid-walk: %s", r)
	}
	if got := reg.Gauge("ecstore_scrub_last_completed_unix").Value(); got != 0 {
		t.Fatalf("last-completed gauge %d after a cut scrub", got)
	}
	for _, _, migrated := f.calls(); migrated == 0 && time.Since(queuedAt) < 5*time.Second; _, _, migrated = f.calls() {
		time.Sleep(time.Millisecond)
	}
	if waited := time.Since(queuedAt); waited > time.Second {
		t.Fatalf("drain began %v after the view change", waited)
	}
}

// TestOneBudget: ticks, recovery kicks and view-change kicks all land
// on one loop, so the per-key calls of every pass share one bound.
func TestOneBudget(t *testing.T) {
	const bound = 3
	f := newFake(40)
	f.delay = time.Millisecond
	f.verify = func(string) (bool, error) { return false, nil } // every scrubbed key is repaired too
	f.repair = func(string) (core.RepairReport, error) { return core.RepairReport{Missing: 1, Rewritten: 1}, nil }
	var sources, scrubs atomic.Int32
	d := newDaemon(t, Config{Client: f, Interval: 2 * time.Millisecond, Rate: -1, MaxConcurrent: bound, OnCycle: func(r Report) {
		if r.Sources > 0 {
			sources.Add(1)
		} else {
			scrubs.Add(1)
		}
	}})
	d.Start()
	for e := uint64(3); e < 13; e++ {
		f.recoveredFn("srv")
		f.onChange(membership.View{Epoch: e - 1, Servers: f.view.Servers}, membership.View{Epoch: e, Servers: f.view.Servers})
		time.Sleep(5 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sources.Load() == 0 || scrubs.Load() < 2 || d.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drains %d, scrubs %d, pending %d", sources.Load(), scrubs.Load(), d.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.migrated) == 0 || len(f.repaired) == 0 {
		t.Fatalf("%d MigrateKey and %d Repair calls: both walks must run", len(f.migrated), len(f.repaired))
	}
	if f.maxInFlight > bound {
		t.Fatalf("%d per-key calls in flight at once, bound %d", f.maxInFlight, bound)
	}
}
