package scrub

import (
	"errors"
	"fmt"
	"slices"
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

// A pass that leaves the view draining runs again after retryAfter
// without anyone kicking it — the retry is not counted as a kick — and
// Stop does not wait that interval out.
func TestLoopRetriesAFailedPass(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFake(3)
	f.drain()
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
	d.Start()
	d.Kick()
	if r := await(t, reports, "the kicked pass"); r.Failed != 1 || len(f.View().Draining) != 1 {
		t.Fatalf("first pass %s, view %s", r, f.View())
	}
	start := time.Now()
	if r := await(t, reports, "the retry of the failed pass"); r.Failed != 0 || r.Draining != 1 || len(f.View().Draining) != 0 {
		t.Fatalf("retry %s, view %s", r, f.View())
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

	f.drain()
	f.failKeys["k001"] = errors.New("holder down for good")
	d = newDaemon(t, Config{Client: f, Interval: -1, Rate: -1, OnCycle: reportsTo(reports)})
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
	f.repair = func(string) (core.RepairReport, error) {
		started <- struct{}{}
		return core.RepairReport{}, nil
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

// TestWalkPacesBoundsAndVisitsEveryKey: a walk hands every key to
// RepairEach once, in order, a page of at most pageKeys at a time with
// one page in flight, sums the per-key reports, and keeps the rate:
// page j is due at start + j·pageKeys/Rate and the walk returns no
// sooner than start + len(keys)/Rate.
func TestWalkPacesBoundsAndVisitsEveryKey(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFake(40)
	f.delay = 12 * time.Millisecond // under a page's 16 ms: the pace, not the calls, sets the length
	f.repair = func(string) (core.RepairReport, error) {
		return core.RepairReport{Missing: 1, Rewritten: 1, BytesMoved: 2}, nil
	}
	d := newDaemon(t, Config{Client: f, Rate: 1000, Metrics: reg}) // 16 ms per page
	start := time.Now()
	sum := d.walk(f.keys, nil)
	took := time.Since(start)
	if sum.Scanned != 40 || !slices.Equal(f.repaired, f.keys) {
		t.Fatalf("walked %d keys, repaired %q", sum.Scanned, f.repaired)
	}
	if sum.Repaired != 40 || sum.Refilled != 40 || sum.BytesMoved != 80 {
		t.Fatalf("per-key reports summed to %+v", sum)
	}
	if sizes := []int{len(f.pages[0]), len(f.pages[1]), len(f.pages[2])}; len(f.pages) != 3 || !slices.Equal(sizes, []int{16, 16, 8}) {
		t.Fatalf("pages %q, want 16, 16 and 8 keys", f.pages)
	}
	if f.maxInFlight != 1 {
		t.Fatalf("%d RepairEach calls in flight at once, want 1", f.maxInFlight)
	}
	if took < 40*time.Millisecond {
		t.Fatalf("40 keys at 1000/s took %v, want >= 40ms", took)
	}
	if got := reg.Counter("ecstore_scrub_keys_scanned_total").Value(); got != 40 {
		t.Fatalf("keys scanned counter = %d", got)
	}

	// Unthrottled: every key, no pacing.
	d = newDaemon(t, Config{Client: newFake(0), Rate: -1})
	if sum := d.walk(newFake(50).keys, nil); sum.Scanned != 50 {
		t.Fatalf("unthrottled walk started %d of 50", sum.Scanned)
	}
}

func TestWalkStopsOnCancel(t *testing.T) {
	f := newFake(0)
	d := newDaemon(t, Config{Client: f, Rate: -1})
	closed := make(chan struct{})
	close(closed)
	if sum := d.walk(newFake(10).keys, closed); sum.Scanned != 0 || f.calls() != 0 {
		t.Fatalf("walk under a closed cancel started %d keys, repaired %d", sum.Scanned, f.calls())
	}

	// Cancelled while waiting for the next page's slot: the wait ends at
	// once, and the page already started finishes before walk returns.
	f = newFake(0)
	f.delay = 50 * time.Millisecond
	d = newDaemon(t, Config{Client: f, Rate: 2}) // 8 s per page
	cancel := make(chan struct{})
	time.AfterFunc(30*time.Millisecond, func() { close(cancel) })
	start := time.Now()
	sum := d.walk(newFake(40).keys, cancel)
	if sum.Scanned != pageKeys || len(f.pages) != 1 || f.inFlight != 0 {
		t.Fatalf("started %d keys in %d pages, %d in flight; want one page of %d, finished", sum.Scanned, len(f.pages), f.inFlight, pageKeys)
	}
	if took := time.Since(start); took > 400*time.Millisecond {
		t.Fatalf("cancelled walk returned after %v: it slept out the pace", took)
	}
}

func TestCycleBookkeeping(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFake(1)
	f.repair = func(string) (core.RepairReport, error) {
		if got := reg.Gauge("ecstore_scrub_in_progress").Value(); got != 1 {
			t.Errorf("in-progress gauge = %d during the cycle", got)
		}
		time.Sleep(2 * time.Millisecond)
		return core.RepairReport{}, nil
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

// TestRunCycleDrainsSource: a pass over a draining view repairs every
// key, sums the moved keys' reports, and — all converged — publishes
// the next epoch without the draining ring.
func TestRunCycleDrainsSource(t *testing.T) {
	f := newFake(5)
	f.drain()
	f.reports["k001"] = core.RepairReport{Missing: 2, Rewritten: 2, Dropped: 1, BytesMoved: 100, Moved: true}
	d := newDaemon(t, Config{Client: f, Rate: -1})
	rep := d.RunCycle(nil)
	if rep.Draining != 1 || rep.Scanned != 5 || rep.Err != nil {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Repaired != 1 || rep.Healthy != 4 || rep.Refilled != 2 || rep.Dropped != 1 || rep.BytesMoved != 100 {
		t.Fatalf("per-key aggregation: %+v", rep)
	}
	want := drainingView().Drained()
	if got := f.View(); !got.Equal(want) || len(got.Draining) != 0 {
		t.Fatalf("view after a clean pass = %s, want %s", got, want)
	}
	if repaired := f.calls(); repaired != 5 {
		t.Fatalf("repaired %d keys, want 5", repaired)
	}
}

// TestDrainingListClearsAfterCleanPass: the list is cleared only by a
// pass that scanned, started and converged every key — not by one
// whose scan failed, one cut short, or one with a failed key — and a
// failed push leaves it for the next pass. A steady view is never
// pushed.
func TestDrainingListClearsAfterCleanPass(t *testing.T) {
	f := newFake(4)
	d := newDaemon(t, Config{Client: f, Rate: -1})
	if r := d.RunCycle(nil); r.Draining != 0 || len(f.pushed) != 0 {
		t.Fatalf("steady pass %s pushed %v", r, f.pushed)
	}

	f.drain()
	f.scanErr = errors.New("cluster unreachable")
	if r := d.RunCycle(nil); r.Err == nil || len(f.pushed) != 0 {
		t.Fatalf("scan error: %s, pushed %v", r, f.pushed)
	}
	f.scanErr = nil

	cancel := make(chan struct{})
	close(cancel)
	if r := d.RunCycle(cancel); r.Scanned != 0 || len(f.pushed) != 0 {
		t.Fatalf("cancelled pass: %s, pushed %v", r, f.pushed)
	}

	f.failKeys["k002"] = errors.New("holder down")
	if r := d.RunCycle(nil); r.Failed != 1 || len(f.pushed) != 0 {
		t.Fatalf("failed key: %s, pushed %v", r, f.pushed)
	}
	delete(f.failKeys, "k002")

	f.pushErr = errors.New("no server adopted")
	if r := d.RunCycle(nil); r.Failed != 0 || len(f.View().Draining) != 1 {
		t.Fatalf("failed push: %s, view %s", r, f.View())
	}
	f.pushErr = nil

	if r := d.RunCycle(nil); r.Failed != 0 || r.Draining != 1 || len(f.pushed) != 1 {
		t.Fatalf("clean pass: %s, pushed %v", r, f.pushed)
	}
	if got, want := f.pushed[0], drainingView().Drained(); !got.Equal(want) {
		t.Fatalf("pushed %s, want %s", got, want)
	}
	if r := d.RunCycle(nil); r.Draining != 0 || len(f.pushed) != 1 {
		t.Fatalf("pass after the clear: %s, pushed %v", r, f.pushed)
	}
}

func TestFailedSourceStaysQueued(t *testing.T) {
	f := newFake(3)
	f.drain()
	f.failKeys["k001"] = errors.New("holder down")
	d := newDaemon(t, Config{Client: f, Rate: -1})
	rep := d.RunCycle(nil)
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
	if len(f.View().Draining) != 1 {
		t.Fatal("a pass with a failed key cleared the draining list")
	}
	// The holder recovers; the retry pass clears the list.
	f.mu.Lock()
	delete(f.failKeys, "k001")
	f.mu.Unlock()
	rep = d.RunCycle(nil)
	if rep.Failed != 0 || len(f.View().Draining) != 0 {
		t.Fatalf("retry: failed=%d view %s", rep.Failed, f.View())
	}
}

func TestAbsentKeyIsNotFailure(t *testing.T) {
	f := newFake(2)
	f.drain()
	// A key deleted between scan and repair is convergence, not error.
	f.failKeys["k000"] = core.ErrNotFound
	d := newDaemon(t, Config{Client: f, Rate: -1})
	rep := d.RunCycle(nil)
	if rep.Failed != 0 || rep.Err != nil || len(f.View().Draining) != 0 {
		t.Fatalf("report = %+v view %s", rep, f.View())
	}
}

func TestScanErrorStaysQueued(t *testing.T) {
	f := newFake(3)
	f.drain()
	f.scanErr = errors.New("cluster unreachable")
	d := newDaemon(t, Config{Client: f, Rate: -1})
	rep := d.RunCycle(nil)
	if rep.Err == nil || rep.Draining != 1 || len(f.View().Draining) != 1 {
		t.Fatalf("report %s, view %s", rep, f.View())
	}
}

func TestCancelKeepsSource(t *testing.T) {
	f := newFake(100)
	f.drain()
	d := newDaemon(t, Config{Client: f, Rate: -1})
	cancel := make(chan struct{})
	close(cancel)
	rep := d.RunCycle(cancel)
	if rep.Scanned != 0 {
		t.Fatalf("scanned = %d with pre-closed cancel", rep.Scanned)
	}
	if len(f.View().Draining) != 1 {
		t.Fatal("a cancelled pass cleared the draining list")
	}
}

// TestViewChangeQueuesSource: an adopted view that drains kicks a pass
// and sets the pending-sources gauge to its list's length; a steady one
// (the clear itself) only resets the gauge.
func TestViewChangeQueuesSource(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFake(1)
	newDaemon(t, Config{Client: f, Rate: -1, Metrics: reg})
	if f.onChange == nil {
		t.Fatal("view-change hook not registered")
	}
	gauge, kicks := reg.Gauge("ecstore_migration_pending_sources"), reg.Counter("ecstore_scrub_kicks_total")
	f.onChange(oldView(), drainingView())
	if gauge.Value() != 1 || kicks.Value() != 1 {
		t.Fatalf("after a draining view: pending %d, kicks %d", gauge.Value(), kicks.Value())
	}
	f.onChange(drainingView(), drainingView().Drained())
	if gauge.Value() != 0 || kicks.Value() != 1 {
		t.Fatalf("after the clear: pending %d, kicks %d", gauge.Value(), kicks.Value())
	}
}

// TestNewRegistersHooks: New needs a client, and on one it registers
// both hooks — a recovery kicks, a draining view change kicks — and
// seeds the pending-sources gauge from the client's view.
func TestNewRegistersHooks(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil client")
	}
	reg := metrics.NewRegistry()
	f := newFake(1)
	f.drain()
	newDaemon(t, Config{Client: f, Rate: -1, Metrics: reg})
	if f.recoveredFn == nil || f.onChange == nil {
		t.Fatal("New left a hook unregistered")
	}
	if got := reg.Gauge("ecstore_migration_pending_sources").Value(); got != 1 {
		t.Fatalf("pending gauge = %d for a draining view", got)
	}
	f.recoveredFn("a:1")
	if got := reg.Counter("ecstore_scrub_kicks_total").Value(); got != 1 {
		t.Fatalf("after a recovery: kicks = %d", got)
	}
	f.onChange(oldView(), f.View())
	if got := reg.Counter("ecstore_scrub_kicks_total").Value(); got != 2 {
		t.Fatalf("after a view change: kicks = %d", got)
	}
}

// TestRateBudget: a pass over a draining view spends the same keys/sec
// budget as any other — 5 keys at 100 keys/s leave 4 gaps due at 10ms
// spacing.
func TestRateBudget(t *testing.T) {
	f := newFake(5)
	f.drain()
	d := newDaemon(t, Config{Client: f, Rate: 100})
	rep := d.RunCycle(nil)
	if rep.Draining != 1 || rep.Scanned != 5 {
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

	f.drain()
	f.onChange(oldView(), f.View())
	if rep := await(t, cycles, "a pass after the view-change kick"); rep.Draining != 1 || rep.Scanned != 4 || rep.Err != nil {
		t.Fatalf("cycle report = %+v", rep)
	}
	if v := f.View(); len(v.Draining) != 0 {
		t.Fatalf("view after the pass: %s", v)
	}
	d.Stop()
	d.Stop() // idempotent
}

func TestMetricsCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFake(3)
	f.drain()
	f.reports["k000"] = core.RepairReport{Missing: 1, Rewritten: 1, Dropped: 2, BytesMoved: 64, Moved: true}
	f.failKeys["k002"] = errors.New("holder down")
	d := newDaemon(t, Config{Client: f, Rate: -1, Metrics: reg})
	d.Kick()
	_ = d.RunCycle(nil)
	snap := reg.Snapshot()
	checks := map[string]int64{
		"ecstore_scrub_keys_scanned_total":       3,
		"ecstore_scrub_cycles_total":             1,
		"ecstore_scrub_kicks_total":              1,
		"ecstore_scrub_keys_repaired_total":      1,
		"ecstore_scrub_keys_failed_total":        1,
		"ecstore_scrub_rewrites_total":           0,
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

// TestPassWalksCurrentAndDrainingServers: every pass is one walk over
// the keys stored on every server the view names, current or draining
// — a removed server's keys included — repairing each scanned key
// exactly once, whose report alone says whether the key was healthy.
func TestPassWalksCurrentAndDrainingServers(t *testing.T) {
	f := newFake(3)
	f.setView(membership.View{Epoch: 1, Servers: []string{"a:1", "b:1", "c:1"}}.WithRemoved("b:1"))
	f.repair = func(key string) (core.RepairReport, error) {
		if key == "k001" {
			return core.RepairReport{Checked: 3, Missing: 1, Rewritten: 1}, nil
		}
		return core.RepairReport{Checked: 3}, nil
	}
	d := newDaemon(t, Config{Client: f, Rate: -1})
	if r := d.RunCycle(nil); r.Draining != 1 || r.Scanned != 3 || r.Failed != 0 {
		t.Fatalf("draining pass: %s", r)
	}
	if want := []string{"a:1", "b:1", "c:1"}; len(f.scanned) != 1 || !slices.Equal(f.scanned[0], want) {
		t.Fatalf("scanned %v, want %v", f.scanned, want)
	}
	if repaired := f.calls(); repaired != 3 {
		t.Fatalf("draining pass: %d keys repaired; want 3", repaired)
	}

	// The list is gone: the same walk over the current servers, each key
	// repaired once, and only the key it refilled counts as repaired.
	f.repaired = nil
	if r := d.RunCycle(nil); r.Draining != 0 || r.Scanned != 3 || r.Healthy != 2 || r.Repaired != 1 {
		t.Fatalf("steady pass: %s", r)
	}
	if want := []string{"a:1", "c:1"}; !slices.Equal(f.scanned[1], want) {
		t.Fatalf("scanned %v, want %v", f.scanned[1], want)
	}
	slices.Sort(f.repaired)
	if !slices.Equal(f.repaired, []string{"k000", "k001", "k002"}) {
		t.Fatalf("steady pass repaired %q, want each key once", f.repaired)
	}
}

// TestFailedKeyKeepsDrainingList: one key that fails keeps every
// draining ring in the view — the list is cleared whole or not at all —
// and the pass after it recovers clears them in one push.
func TestFailedKeyKeepsDrainingList(t *testing.T) {
	f := newFake(3)
	twice := membership.NewView([]string{"a:1"}).WithAdded("b:1").WithAdded("c:1")
	f.setView(twice)
	f.failKeys["k001"] = errors.New("holder down")
	d := newDaemon(t, Config{Client: f, Rate: -1})
	if r := d.RunCycle(nil); r.Draining != 2 || r.Scanned != 3 || r.Failed != 1 || !f.View().Equal(twice) {
		t.Fatalf("pass %s, view %s", r, f.View())
	}
	f.mu.Lock()
	delete(f.failKeys, "k001")
	f.mu.Unlock()
	if r := d.RunCycle(nil); r.Draining != 2 || r.Failed != 0 || len(f.pushed) != 1 || !f.View().Equal(twice.Drained()) {
		t.Fatalf("retry %s, view %s", r, f.View())
	}
}

// TestViewChangeMidPassKeepsNewerList: a view installed while a pass
// walks — another change, with a draining list of its own — is never
// cleared by that pass, however cleanly it ends; the pass after it
// walks the new view and clears it.
func TestViewChangeMidPassKeepsNewerList(t *testing.T) {
	f := newFake(5)
	f.drain()
	newer := drainingView().WithRemoved("a:1")
	var once sync.Once
	f.onRepair = func(string) { once.Do(func() { f.setView(newer) }) }
	d := newDaemon(t, Config{Client: f, Rate: -1})
	if r := d.RunCycle(nil); r.Failed != 0 || r.Draining != 1 || len(f.pushed) != 0 || !f.View().Equal(newer) {
		t.Fatalf("pass %s pushed %v, view %s", r, f.pushed, f.View())
	}
	if r := d.RunCycle(nil); r.Draining != 2 || r.Failed != 0 || !f.View().Equal(newer.Drained()) {
		t.Fatalf("next pass %s, view %s", r, f.View())
	}
}

// TestOneBudget: ticks, recovery kicks and view-change kicks all land
// on one loop, so the pages of every pass share one budget: at most one
// RepairEach call in flight.
func TestOneBudget(t *testing.T) {
	f := newFake(40)
	f.delay = time.Millisecond
	f.repair = func(string) (core.RepairReport, error) { return core.RepairReport{Missing: 1, Rewritten: 1}, nil }
	var draining, steady atomic.Int32
	d := newDaemon(t, Config{Client: f, Interval: 2 * time.Millisecond, Rate: -1, OnCycle: func(r Report) {
		if r.Draining > 0 {
			draining.Add(1)
		} else {
			steady.Add(1)
		}
	}})
	d.Start()
	for e := uint64(3); e < 13; e++ {
		f.recoveredFn("srv")
		prev := f.View()
		next := prev.WithAdded(fmt.Sprintf("s%d:1", e))
		f.setView(next)
		f.onChange(prev, next)
		time.Sleep(5 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for draining.Load() == 0 || steady.Load() < 2 || len(f.View().Draining) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("draining passes %d, steady %d, view %s", draining.Load(), steady.Load(), f.View())
		}
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.repaired) == 0 {
		t.Fatal("no RepairEach calls")
	}
	if f.maxInFlight > 1 {
		t.Fatalf("%d RepairEach calls in flight at once, want 1", f.maxInFlight)
	}
}
