// Package scrub implements the store's one background daemon, which
// brings the cluster back to full redundancy at the current placement
// — the paper's open future-work item of recovery after node failure (a
// restarted server comes back empty) — and finishes every membership
// change. Each pass is one walk over the keys stored on the servers of
// the current view and of every ring it still drains
// (membership.View.Draining), one page of keys at a time, each page one
// Client.RepairEach call: its probe is the health check, and a healthy
// key costs its share of one probe round and no write. RepairEach reads
// every source placement, so no key is repaired against
// the current ring alone while its data may sit where only an older
// ring places it. A pass that scanned, started and converged every key
// clears the draining list by publishing the next epoch without it,
// unless the view moved on during the pass.
//
// Recovery traffic, not foreground traffic, saturates erasure-coded
// clusters (Rashmi et al.), so every pass spends one keys/sec rate, with
// one page in flight. Passes run on a periodic interval and on kicks:
// Kick, a down server answering again (Client.OnServerRecovered), and
// every adopted view that drains (Client.OnViewChange), so `ring add` /
// `ring remove` start draining by themselves. A pass that leaves the
// list in place runs again after a second.
package scrub

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/membership"
	"ecstore/internal/metrics"
	"ecstore/internal/stats"
)

const (
	// DefaultInterval is the period between timed passes.
	DefaultInterval = 5 * time.Minute
	// DefaultRate caps the keyspace walk at this many keys per second.
	DefaultRate = 1000.0
	// pageKeys is how many keys one RepairEach call converges. A page of
	// 1 MB RS(3,2) values leases about 27 MB of probe responses until its
	// refills are sent (DESIGN §8).
	pageKeys = 16
	// retryAfter is how long the loop waits to re-run a pass that left
	// the view draining: its failed holders may be mid-restart.
	retryAfter = time.Second
)

// Client is the slice of core.Client the daemon needs: ScanKeysOn
// lists the logical keys stored on addrs, RepairEach converges a page
// of keys, View is the current membership view, RefreshView learns the
// cluster's, PushView publishes the one that clears its draining
// rings, and New registers its hooks with OnServerRecovered and
// OnViewChange. It is an interface so tests can
// exercise the daemon's control flow (fallback paths, error accounting,
// the clear rule) without a live cluster.
type Client interface {
	ScanKeysOn(addrs []string) ([]string, error)
	RepairEach(keys []string, each func(key string, report core.RepairReport, err error))
	View() membership.View
	RefreshView() (membership.View, error)
	PushView(v membership.View) (membership.View, error)
	OnServerRecovered(fn func(addr string))
	OnViewChange(fn func(old, new membership.View))
}

// Config configures a Daemon.
type Config struct {
	// Client performs the per-key operations (required).
	Client Client
	// Interval is the period between timed passes (DefaultInterval if
	// zero; negative: no timer, only kicks and RunCycle).
	Interval time.Duration
	// Rate caps a walk at this many keys per second, healthy keys
	// included, so a pass costs bounded cluster I/O (DefaultRate if zero;
	// negative: unthrottled).
	Rate float64
	// Metrics receives the ecstore_scrub_*/_migration_* series, if set.
	Metrics *metrics.Registry
	// OnCycle, if set, receives the report of every background pass.
	OnCycle func(Report)
	// Logf receives diagnostics (discarded if nil).
	Logf func(format string, args ...any)
}

// Report summarizes one pass. Draining is how many rings the view the
// pass started with still drained, Scanned how many logical keys it
// visited: Healthy ones needed nothing, Repaired ones had copies
// written, and Failed ones did not converge (they keep the view
// draining). Refilled and Dropped count the chunks/replicas written and
// drained, BytesMoved the refills' payload. Err is the pass-level error
// (a scan failed).
type Report struct {
	Draining, Scanned, Healthy, Repaired int
	Refilled, Dropped                    int
	BytesMoved                           int64
	Failed                               int
	Duration                             time.Duration // wall-clock length of the pass
	Err                                  error
}

// String renders the report on one line.
func (r Report) String() string {
	s := fmt.Sprintf("draining=%d scanned=%d healthy=%d repaired=%d refilled=%d dropped=%d bytes=%d failed=%d in %v",
		r.Draining, r.Scanned, r.Healthy, r.Repaired, r.Refilled, r.Dropped, r.BytesMoved, r.Failed,
		r.Duration.Round(time.Millisecond))
	if r.Err != nil {
		s += fmt.Sprintf(" (error: %v)", r.Err)
	}
	return s
}

// add folds the per-key counts of o into r.
func (r *Report) add(o Report) {
	r.Scanned += o.Scanned
	r.Healthy += o.Healthy
	r.Repaired += o.Repaired
	r.Refilled += o.Refilled
	r.Dropped += o.Dropped
	r.BytesMoved += o.BytesMoved
	r.Failed += o.Failed
}

// Daemon is the background loop; create it with New, then Start.
type Daemon struct {
	client   Client
	onCycle  func(Report)
	logf     func(format string, args ...any)
	interval time.Duration
	perKey   time.Duration // walk spacing, 0 = unthrottled
	kick     chan struct{}

	// The loop's series, counting every pass.
	mCycles, mKicks, mKeysScanned *metrics.Counter
	gInProgress                   *metrics.Gauge
	hCycleSeconds                 *stats.Histogram
	// The per-key series: an unmoved key's rewrites are scrub rewrites,
	// a moved key's refills, drains and bytes are migration.
	mKeysHealthy, mKeysRepaired, mKeysFailed, mRewritten *metrics.Counter
	mRefilled, mChunksDrop, mBytesMoved                  *metrics.Counter
	gLastDone, gPending                                  *metrics.Gauge

	mu   sync.Mutex
	stop chan struct{} // closed by Stop; nil while stopped
	wg   sync.WaitGroup
}

// New returns a Daemon for cfg and registers its hooks on the client: a
// recovered server kicks a pass, and so does an adopted view that
// drains.
func New(cfg Config) (*Daemon, error) {
	if cfg.Client == nil {
		return nil, errors.New("scrub: Config.Client is required")
	}
	reg := cfg.Metrics
	d := &Daemon{
		client:   cfg.Client,
		onCycle:  cfg.OnCycle,
		logf:     cfg.Logf,
		interval: cmp.Or(cfg.Interval, DefaultInterval), // negative: no periodic timer
		kick:     make(chan struct{}, 1),

		mCycles:       reg.Counter("ecstore_scrub_cycles_total"),
		mKicks:        reg.Counter("ecstore_scrub_kicks_total"),
		mKeysScanned:  reg.Counter("ecstore_scrub_keys_scanned_total"),
		gInProgress:   reg.Gauge("ecstore_scrub_in_progress"),
		hCycleSeconds: reg.Histogram("ecstore_scrub_cycle_seconds"),
		mKeysHealthy:  reg.Counter("ecstore_scrub_keys_healthy_total"),
		mKeysRepaired: reg.Counter("ecstore_scrub_keys_repaired_total"),
		mKeysFailed:   reg.Counter("ecstore_scrub_keys_failed_total"),
		mRewritten:    reg.Counter("ecstore_scrub_rewrites_total"),
		mRefilled:     reg.Counter("ecstore_migration_refills_total"),
		mChunksDrop:   reg.Counter("ecstore_migration_chunks_dropped_total"),
		mBytesMoved:   reg.Counter("ecstore_migration_bytes_moved_total"),
		gLastDone:     reg.Gauge("ecstore_scrub_last_completed_unix"),
		gPending:      reg.Gauge("ecstore_migration_pending_sources"),
	}
	if d.logf == nil {
		d.logf = func(string, ...any) {}
	}
	if rate := cmp.Or(cfg.Rate, DefaultRate); rate > 0 { // negative: unthrottled
		d.perKey = time.Duration(float64(time.Second) / rate)
	}
	// The pending-sources gauge follows the client's view: its length of
	// draining rings now, and at every adoption (the clear's included).
	d.gPending.Set(int64(len(cfg.Client.View().Draining)))
	cfg.Client.OnServerRecovered(func(addr string) {
		d.logf("scrub: server %s recovered, kicking a pass", addr)
		d.Kick()
	})
	cfg.Client.OnViewChange(func(_, next membership.View) {
		d.gPending.Set(int64(len(next.Draining)))
		if len(next.Draining) > 0 {
			d.Kick()
		}
	})
	return d, nil
}

// Start launches the background loop: one pass per tick or kick.
// Calling Start on a running daemon is a no-op.
func (d *Daemon) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stop != nil {
		return
	}
	d.stop = make(chan struct{})
	d.wg.Add(1)
	go d.loop(d.stop)
}

// Stop halts the background loop, interrupting an in-flight pass
// between pages and waiting for it. The daemon can be started again.
func (d *Daemon) Stop() {
	d.mu.Lock()
	stop := d.stop
	d.stop = nil
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		d.wg.Wait()
	}
}

// Kick requests an immediate pass. It never blocks: if a kick is
// already pending the request folds into it — repeated recovery events
// during one outage cost one extra pass, not one per event.
func (d *Daemon) Kick() {
	d.mKicks.Inc()
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

func (d *Daemon) loop(stop chan struct{}) {
	defer d.wg.Done()
	var tick, retry <-chan time.Time
	if d.interval > 0 {
		t := time.NewTicker(d.interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-stop:
			return
		case <-tick:
		case <-d.kick:
		case <-retry:
		}
		report := d.pass(stop)
		d.logf("scrub: pass complete: %s", report)
		if d.onCycle != nil {
			d.onCycle(report)
		}
		// A pass that leaves the view draining failed part-way, and
		// nothing else will kick it: run it again after retryAfter.
		retry = nil
		if len(d.client.View().Draining) > 0 {
			retry = time.After(retryAfter)
		}
	}
}

// RunCycle runs one pass synchronously and returns its report. A
// closed cancel interrupts it between pages.
func (d *Daemon) RunCycle(cancel <-chan struct{}) Report { return d.pass(cancel) }

// pass runs one pass over the cluster's current view — not just this
// process's, so any daemon finishes a drain another one started: it
// scans the keys stored on every server the view names, current or
// draining, and repairs each. The
// last-completed gauge moves only when the scan succeeded and the walk
// started every key; the draining list is cleared only when, besides,
// no key failed.
func (d *Daemon) pass(cancel <-chan struct{}) Report {
	start := time.Now()
	d.gInProgress.Set(1)
	view, err := d.client.RefreshView()
	report := Report{Draining: len(view.Draining)}
	var keys []string
	if err == nil {
		keys, err = d.client.ScanKeysOn(view.AllServers())
	}
	if err != nil {
		d.logf("scrub: scan failed: %v", err)
		report.Err = err
	} else {
		report.add(d.walk(keys, cancel))
	}
	if err == nil && report.Scanned == len(keys) {
		d.gLastDone.Set(time.Now().Unix())
		if report.Failed == 0 && len(view.Draining) > 0 {
			d.clear(view)
		}
	}
	d.gInProgress.Set(0)
	report.Duration = time.Since(start)
	d.mCycles.Inc()
	d.hCycleSeconds.Record(report.Duration)
	return report
}

// clear publishes view's successor without draining rings, once a pass
// over view has converged every key — unless the view has moved on
// since the pass began: a newer view's list is not this pass's to
// clear.
func (d *Daemon) clear(view membership.View) {
	if d.client.View().Epoch != view.Epoch {
		return
	}
	installed, err := d.client.PushView(view.Drained())
	if err != nil {
		d.logf("scrub: clearing the draining rings of epoch %d: %v", view.Epoch, err)
		return
	}
	d.logf("scrub: epoch %d drained; installed %s", view.Epoch, installed)
}

// walk converges keys a page at a time, each page one RepairEach call,
// and returns the sum of their reports, with Scanned the number of keys
// it started. Pages are paced on a fixed-rate schedule, not a fixed
// sleep: page j is due at start + j·pageKeys/Rate, however long the
// pages before it took, and the walk returns no sooner than
// start + len(keys)/Rate, so no pass walks faster than Rate. A closed
// cancel stops the walk between pages (and its wait for the next one);
// Scanned below len(keys) means it was cut short.
func (d *Daemon) walk(keys []string, cancel <-chan struct{}) Report {
	var sum Report
	next := time.Now()
	for len(keys) > 0 {
		select {
		case <-cancel:
			return sum
		default:
		}
		page := keys[:min(pageKeys, len(keys))]
		keys = keys[len(page):]
		d.mKeysScanned.Add(int64(len(page)))
		sum.Scanned += len(page)
		d.client.RepairEach(page, func(key string, rep core.RepairReport, err error) {
			sum.add(d.tally(key, rep, err))
		})
		next = next.Add(time.Duration(len(page)) * d.perKey)
		if wait := time.Until(next); wait > 0 {
			select {
			case <-time.After(wait):
			case <-cancel:
				return sum
			}
		}
	}
	return sum
}

// tally files one key's RepairEach outcome: healthy, repaired, or still
// short of full redundancy.
func (d *Daemon) tally(key string, rep core.RepairReport, err error) Report {
	out := Report{Refilled: rep.Rewritten, Dropped: rep.Dropped, BytesMoved: rep.BytesMoved}
	if rep.Moved {
		d.mRefilled.Add(int64(rep.Rewritten))
		d.mChunksDrop.Add(int64(rep.Dropped))
		d.mBytesMoved.Add(rep.BytesMoved)
	} else {
		d.mRewritten.Add(int64(rep.Rewritten))
	}
	switch {
	case errors.Is(err, core.ErrNotFound), err == nil && rep.Missing == 0:
		// Deleted (or expired) since the scan, or the probe found full
		// redundancy — a moved key may still have had drains to send.
		d.mKeysHealthy.Inc()
		out.Healthy = 1
	case err != nil:
		d.mKeysFailed.Inc()
		d.logf("scrub: repair %q: %v", key, err)
		out.Failed = 1
	case rep.Rewritten < rep.Missing:
		// Partial repair (a holder is still down): count the work done
		// but flag the key as not converged yet.
		d.mKeysFailed.Inc()
		out.Repaired, out.Failed = min(rep.Rewritten, 1), 1
	default:
		d.mKeysRepaired.Inc()
		out.Repaired = 1
	}
	return out
}
