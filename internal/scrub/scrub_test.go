package scrub

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/membership"
	"ecstore/internal/metrics"
)

// fakeClient scripts the daemon's dependencies so control-flow paths
// (fallbacks, error accounting, the clear rule, concurrency) are
// testable without a cluster.
type fakeClient struct {
	mu      sync.Mutex
	keys    []string
	scanErr error
	view    membership.View
	repair  func(key string) (core.RepairReport, error)
	// failKeys maps keys to the error RepairEach answers for them while the
	// view drains.
	failKeys map[string]error
	// reports maps keys to the report RepairEach answers for them while the
	// view drains (a moved key).
	reports map[string]core.RepairReport
	// pushErr fails every PushView.
	pushErr error
	// onRepair, if set, runs at the start of every key's repair.
	onRepair func(key string)
	// delay is how long every RepairEach call takes.
	delay time.Duration

	repaired              []string
	pages                 [][]string // the keys of every RepairEach call
	scanned               [][]string
	pushed                []membership.View
	inFlight, maxInFlight int

	recoveredFn func(addr string)
	onChange    func(old, new membership.View)
}

func newFake(nkeys int) *fakeClient {
	f := &fakeClient{
		view:     membership.View{Epoch: 2, Servers: []string{"a:1", "b:1", "c:1"}},
		failKeys: map[string]error{},
		reports:  map[string]core.RepairReport{},
	}
	for i := 0; i < nkeys; i++ {
		f.keys = append(f.keys, fmt.Sprintf("k%03d", i))
	}
	return f
}

// drainingView is the fake's view after a join: it drains the ring of
// oldView.
func drainingView() membership.View {
	return oldView().WithAdded("c:1")
}

func oldView() membership.View {
	return membership.View{Epoch: 1, Servers: []string{"a:1", "b:1"}}
}

// drain puts the fake's view in a draining state, as a join leaves it.
func (f *fakeClient) drain() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.view = drainingView()
}

func (f *fakeClient) ScanKeysOn(addrs []string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scanned = append(f.scanned, addrs)
	if f.scanErr != nil {
		return nil, f.scanErr
	}
	return append([]string(nil), f.keys...), nil
}

// begin logs a RepairEach call and counts it in flight until the
// returned func runs.
func (f *fakeClient) begin(keys []string) func() {
	f.mu.Lock()
	f.repaired = append(f.repaired, keys...)
	f.pages = append(f.pages, keys)
	f.inFlight++
	f.maxInFlight = max(f.maxInFlight, f.inFlight)
	delay := f.delay
	f.mu.Unlock()
	time.Sleep(delay)
	return func() {
		f.mu.Lock()
		f.inFlight--
		f.mu.Unlock()
	}
}

// RepairEach answers every key of the page as repairKey does, the page
// one call in flight for as long as it runs.
func (f *fakeClient) RepairEach(keys []string, each func(string, core.RepairReport, error)) {
	defer f.begin(keys)()
	for _, key := range keys {
		report, err := f.repairKey(key)
		each(key, report, err)
	}
}

// repairKey answers a key of a draining view from failKeys and reports
// (a moved key), any other through the repair script: a key without
// one is healthy.
func (f *fakeClient) repairKey(key string) (core.RepairReport, error) {
	if f.onRepair != nil {
		f.onRepair(key)
	}
	f.mu.Lock()
	if len(f.view.Draining) > 0 {
		defer f.mu.Unlock()
		if err := f.failKeys[key]; err != nil {
			return core.RepairReport{Moved: true}, err
		}
		return f.reports[key], nil
	}
	repair := f.repair
	f.mu.Unlock()
	if repair == nil {
		return core.RepairReport{}, nil
	}
	return repair(key)
}

func (f *fakeClient) View() membership.View {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.view
}

// RefreshView answers the fake's view, or its scan error: a cluster no
// server of which answers the scan answers no ring query either.
func (f *fakeClient) RefreshView() (membership.View, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.view, f.scanErr
}

// PushView installs v if it is newer, like a cluster whose servers all
// adopt it.
func (f *fakeClient) PushView(v membership.View) (membership.View, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pushErr != nil {
		return f.view, f.pushErr
	}
	f.pushed = append(f.pushed, v)
	if v.Epoch > f.view.Epoch {
		f.view = v
	}
	return f.view, nil
}

// setView installs v as if another party had pushed it.
func (f *fakeClient) setView(v membership.View) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.view = v
}

func (f *fakeClient) OnServerRecovered(fn func(addr string)) { f.recoveredFn = fn }

func (f *fakeClient) OnViewChange(fn func(old, new membership.View)) { f.onChange = fn }

// calls returns how many keys RepairEach was asked to repair.
func (f *fakeClient) calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.repaired)
}

// requireConverged asserts key is at full redundancy: a Repair finds
// nothing to refill, rewrite or drain.
func requireConverged(t *testing.T, c *core.Client, key string) {
	t.Helper()
	if report, err := c.Repair(key); err != nil || report.Missing != 0 || report.Rewritten != 0 || report.Dropped != 0 {
		t.Errorf("Repair(%s) = %s, %v; want a converged key", key, report, err)
	}
}

func newDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRequiresClient(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil client")
	}
}

func TestRunCycleScanError(t *testing.T) {
	boom := errors.New("cluster unreachable")
	reg := metrics.NewRegistry()
	f := newFake(0)
	f.scanErr = boom
	d := newDaemon(t, Config{Client: f, Rate: -1, Metrics: reg})
	report := d.RunCycle(nil)
	if !errors.Is(report.Err, boom) || report.Scanned != 0 {
		t.Fatalf("report %+v", report)
	}
	if got := reg.Counter("ecstore_scrub_cycles_total").Value(); got != 1 {
		t.Fatalf("cycles counter = %d", got)
	}
	if !strings.Contains(report.String(), "error") {
		t.Fatalf("report string %q hides the error", report)
	}
}

func TestRunCycleAllHealthy(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newFake(3)
	d := newDaemon(t, Config{Client: c, Rate: -1, Metrics: reg})
	report := d.RunCycle(nil)
	if report.Scanned != 3 || report.Healthy != 3 || report.Repaired != 0 || report.Failed != 0 {
		t.Fatalf("report %+v", report)
	}
	if len(c.repaired) != 3 {
		t.Fatalf("repaired %q, want each key probed by one Repair", c.repaired)
	}
	if got := reg.Counter("ecstore_scrub_keys_healthy_total").Value(); got != 3 {
		t.Fatalf("healthy counter = %d", got)
	}
}

// TestScrubKeyOutcomes drives every branch of tally through
// RunCycle with a single scripted key: one repair, whatever it
// reports.
func TestScrubKeyOutcomes(t *testing.T) {
	for name, tc := range map[string]struct {
		repair func(string) (core.RepairReport, error)
		want   Report
	}{
		"healthy": {
			repair: func(string) (core.RepairReport, error) {
				return core.RepairReport{Checked: 5}, nil
			},
			want: Report{Scanned: 1, Healthy: 1},
		},
		"deleted-between-scan-and-repair": {
			repair: func(string) (core.RepairReport, error) {
				return core.RepairReport{}, core.ErrNotFound
			},
			want: Report{Scanned: 1, Healthy: 1},
		},
		"degraded-then-repaired": {
			repair: func(string) (core.RepairReport, error) {
				return core.RepairReport{Checked: 5, Missing: 2, Rewritten: 2, BytesMoved: 200}, nil
			},
			want: Report{Scanned: 1, Repaired: 1, Refilled: 2, BytesMoved: 200},
		},
		"repair-error": {
			repair: func(string) (core.RepairReport, error) {
				return core.RepairReport{}, core.ErrUnavailable
			},
			want: Report{Scanned: 1, Failed: 1},
		},
		"partial-repair-counts-work-and-fails": {
			repair: func(string) (core.RepairReport, error) {
				return core.RepairReport{Checked: 5, Missing: 3, Rewritten: 1, BytesMoved: 7}, nil
			},
			want: Report{Scanned: 1, Repaired: 1, Refilled: 1, BytesMoved: 7, Failed: 1},
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := newFake(1)
			c.repair = tc.repair
			d := newDaemon(t, Config{Client: c, Rate: -1})
			got := d.RunCycle(nil)
			got.Duration = 0
			if got != tc.want {
				t.Fatalf("report %+v, want %+v", got, tc.want)
			}
			if len(c.repaired) != 1 {
				t.Fatalf("repair called %d times, want 1", len(c.repaired))
			}
		})
	}
}

func TestRatePacing(t *testing.T) {
	c := newFake(6)
	// 100 keys/sec: the 5 inter-key gaps after the first key are due at
	// 10ms spacing, so the scrub cannot complete in under ~50ms.
	d := newDaemon(t, Config{Client: c, Rate: 100})
	report := d.RunCycle(nil)
	if report.Scanned != 6 || report.Healthy != 6 {
		t.Fatalf("scrub report %+v", report)
	}
	if report.Duration < 40*time.Millisecond {
		t.Fatalf("rate-limited scrub finished in %v, want >= ~50ms", report.Duration)
	}

	// Unthrottled, the same keyspace is effectively instant.
	d = newDaemon(t, Config{Client: c, Rate: -1})
	if r := d.RunCycle(nil); r.Duration > 5*time.Second {
		t.Fatalf("unthrottled cycle took %v", r.Duration)
	}
}

func TestRunCycleCancel(t *testing.T) {
	c := newFake(1000)
	d := newDaemon(t, Config{Client: c, Rate: 50}) // 20ms per key
	cancel := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(cancel)
	}()
	report := d.RunCycle(cancel)
	if report.Scanned >= len(c.keys) {
		t.Fatalf("cancelled cycle scanned all %d keys", report.Scanned)
	}
	// Everything it did scan was fully processed (no leaked goroutines
	// past the barrier): scanned keys were all repaired.
	if repaired := c.calls(); repaired != report.Scanned {
		t.Fatalf("scanned %d but repaired %d", report.Scanned, repaired)
	}
}

// TestLastCompletedGauge: the gauge marks a finished scrub only — not
// a pass whose scan failed, nor one cut short between pages.
func TestLastCompletedGauge(t *testing.T) {
	reg := metrics.NewRegistry()
	gauge := reg.Gauge("ecstore_scrub_last_completed_unix")
	c := newFake(100)
	d := newDaemon(t, Config{Client: c, Rate: -1, Metrics: reg})

	c.scanErr = errors.New("cluster unreachable")
	if r := d.RunCycle(nil); r.Err == nil || gauge.Value() != 0 {
		t.Fatalf("scan error: report %s, gauge %d", r, gauge.Value())
	}
	c.scanErr = nil

	cancel := make(chan struct{})
	var once sync.Once
	c.repair = func(string) (core.RepairReport, error) {
		once.Do(func() { close(cancel) }) // cut the walk after its first keys
		return core.RepairReport{}, nil
	}
	if r := d.RunCycle(cancel); r.Scanned == 0 || r.Scanned == 100 || gauge.Value() != 0 {
		t.Fatalf("cancelled walk: report %s, gauge %d", r, gauge.Value())
	}

	before := time.Now().Unix()
	if r := d.RunCycle(nil); r.Scanned != 100 || gauge.Value() < before {
		t.Fatalf("clean pass: report %s, gauge %d, want >= %d", r, gauge.Value(), before)
	}
}

func TestDaemonKickAndRestart(t *testing.T) {
	reg := metrics.NewRegistry()
	reports := make(chan Report, 16)
	c := newFake(2)
	d := newDaemon(t, Config{
		Client:   c,
		Interval: -1, // no periodic timer: only kicks run cycles
		Rate:     -1,
		Metrics:  reg,
		OnCycle:  func(r Report) { reports <- r },
		Logf:     t.Logf,
	})

	// New must have wired the recovery hook to Kick.
	if c.recoveredFn == nil {
		t.Fatal("recovery hook not registered")
	}

	d.Start()
	d.Start() // no-op on a running daemon
	d.Kick()
	select {
	case r := <-reports:
		if r.Scanned != 2 || r.Healthy != 2 {
			t.Fatalf("kicked cycle report %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("kicked cycle never completed")
	}

	// A server-recovered event also triggers a cycle.
	c.recoveredFn("srv-3")
	select {
	case <-reports:
	case <-time.After(5 * time.Second):
		t.Fatal("recovery-kicked cycle never completed")
	}

	d.Stop()
	d.Stop() // no-op on a stopped daemon
	if got := reg.Counter("ecstore_scrub_kicks_total").Value(); got < 2 {
		t.Fatalf("kicks counter = %d, want >= 2", got)
	}

	// A stopped daemon is restartable.
	d.Start()
	d.Kick()
	select {
	case <-reports:
	case <-time.After(5 * time.Second):
		t.Fatal("cycle after restart never completed")
	}
	d.Stop()
}

func TestDaemonPeriodicInterval(t *testing.T) {
	reports := make(chan Report, 16)
	c := newFake(1)
	d := newDaemon(t, Config{
		Client:   c,
		Interval: 20 * time.Millisecond,
		Rate:     -1,
		OnCycle:  func(r Report) { reports <- r },
	})
	d.Start()
	defer d.Stop()
	for i := 0; i < 2; i++ {
		select {
		case <-reports:
		case <-time.After(5 * time.Second):
			t.Fatalf("periodic cycle %d never fired", i)
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{Draining: 2, Scanned: 10, Healthy: 8, Repaired: 1, Refilled: 3, Dropped: 5, BytesMoved: 640,
		Failed: 1, Duration: 1500 * time.Millisecond, Err: errors.New("boom")}
	s := r.String()
	for _, want := range []string{"draining=2", "scanned=10", "healthy=8", "repaired=1", "refilled=3",
		"dropped=5", "bytes=640", "failed=1", "in 1.5s", "(error: boom)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
	if strings.Contains(Report{}.String(), "error") {
		t.Fatalf("error-free report %q mentions an error", Report{})
	}
}

// TestScrubConvergesCluster is the end-to-end check on a real cluster:
// a server crashes and rejoins empty, and one scrub cycle restores
// full redundancy for every key — erasure-coded large values and
// replicated small ones alike.
func TestScrubConvergesCluster(t *testing.T) {
	cl, err := cluster.Start(cluster.Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, err := core.New(core.Config{
		Network:    cl.Network(),
		Servers:    cl.Addrs(),
		Resilience: core.ResilienceHybrid,
		Replicas:   3, K: 3, M: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	values := map[string][]byte{}
	for i := 0; i < 8; i++ {
		small := fmt.Sprintf("small-%d", i)
		large := fmt.Sprintf("large-%d", i)
		values[small] = []byte(fmt.Sprintf("tiny-%d", i))
		values[large] = bytes.Repeat([]byte{byte('A' + i)}, 16<<10)
	}
	for k, v := range values {
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}

	cl.Kill(1)
	if err := cl.Restart(1); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	d := newDaemon(t, Config{Client: c, Rate: -1, Metrics: reg, Logf: t.Logf})
	report := d.RunCycle(nil)
	if report.Err != nil || report.Scanned != len(values) || report.Failed != 0 {
		t.Fatalf("scrub cycle: %s", report)
	}
	if report.Repaired == 0 || report.Refilled == 0 || report.BytesMoved == 0 {
		t.Fatalf("scrub repaired nothing after a server lost its data: %s", report)
	}

	// Converged: a second cycle finds a fully healthy keyspace…
	second := d.RunCycle(nil)
	if second.Healthy != len(values) || second.Repaired != 0 || second.Failed != 0 {
		t.Fatalf("second cycle not clean: %s", second)
	}
	// …every key is converged, and every value reads back byte-identical.
	for k, v := range values {
		requireConverged(t, c, k)
		got, err := c.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) after scrub: %d bytes, %v", k, len(got), err)
		}
	}
	if got := reg.Counter("ecstore_scrub_cycles_total").Value(); got != 2 {
		t.Fatalf("cycles counter = %d", got)
	}
}

// TestRemovedCrashedServerDrains: `ring remove` of a server that has
// crashed for good leaves a draining ring one of whose servers never
// answers. Its keys converge anyway — the refills land on the current
// placement, and a drain that cannot reach a server the view no longer
// names is not a failure — so a pass clears the list, and every key
// reads back and is converged at the current placement alone.
func TestRemovedCrashedServerDrains(t *testing.T) {
	for name, cfg := range map[string]core.Config{
		"sync-rep":  {Resilience: core.ResilienceSyncRep, Replicas: 3},
		"era-ce-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2},
		"hybrid":    {Resilience: core.ResilienceHybrid, Replicas: 3, K: 3, M: 2},
	} {
		t.Run(name, func(t *testing.T) {
			cl, err := cluster.Start(cluster.Config{N: 6})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			cfg.Network, cfg.Servers = cl.Network(), cl.Addrs()
			c, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			values := map[string][]byte{}
			for i := 0; i < 16; i++ {
				key := fmt.Sprintf("%s-%02d", name, i)
				values[key] = bytes.Repeat([]byte{byte('a' + i)}, 100+(i%2)*(16<<10))
				if err := c.Set(key, values[key]); err != nil {
					t.Fatal(err)
				}
			}
			cl.Kill(2)
			if _, err := c.RingRemove(cl.Addrs()[2]); err != nil {
				t.Fatal(err)
			}
			d := newDaemon(t, Config{Client: c, Rate: -1, Logf: t.Logf})
			for pass := 1; len(c.View().Draining) > 0; pass++ {
				if pass > 3 {
					t.Fatalf("view %s still drains after %d passes", c.View(), pass-1)
				}
				if r := d.RunCycle(nil); r.Err != nil {
					t.Fatalf("pass %d: %s", pass, r)
				}
			}
			for key, want := range values {
				if got, err := c.Get(key); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Get(%s) after the drain: %d bytes, %v", key, len(got), err)
				}
				requireConverged(t, c, key)
			}
		})
	}
}

// BenchmarkScrubRecoveryCycle measures the recovery time EXPERIMENTS.md
// reports: a 5-server hybrid cluster where one server has crashed and
// rejoined empty, re-filled by a single unthrottled scrub cycle. Each
// iteration kills a different server so every cycle has real repair
// work (~1/5 of all chunks and replicas).
func BenchmarkScrubRecoveryCycle(b *testing.B) {
	cl, err := cluster.Start(cluster.Config{N: 5})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	c, err := core.New(core.Config{
		Network:    cl.Network(),
		Servers:    cl.Addrs(),
		Resilience: core.ResilienceHybrid,
		Replicas:   3, K: 3, M: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const keys = 200
	for i := 0; i < keys; i++ {
		var v []byte
		if i%2 == 0 {
			v = bytes.Repeat([]byte{byte(i)}, 16<<10) // EC stripe
		} else {
			v = bytes.Repeat([]byte{byte(i)}, 128) // replicated
		}
		if err := c.Set(fmt.Sprintf("bench-%03d", i), v); err != nil {
			b.Fatal(err)
		}
	}
	d, err := New(Config{Client: c, Rate: -1})
	if err != nil {
		b.Fatal(err)
	}
	var repaired, refilled int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		victim := i % 5
		cl.Kill(victim)
		if err := cl.Restart(victim); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		report := d.RunCycle(nil)
		if report.Err != nil || report.Failed != 0 {
			b.Fatalf("cycle: %s", report)
		}
		repaired += report.Repaired
		refilled += report.Refilled
	}
	b.ReportMetric(float64(repaired)/float64(b.N), "keys-repaired/cycle")
	b.ReportMetric(float64(refilled)/float64(b.N), "rewrites/cycle")
}
