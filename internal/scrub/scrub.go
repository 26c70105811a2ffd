// Package scrub implements the store's one background daemon, which
// brings the cluster back to full redundancy at the current placement
// — the paper's open future-work item of recovery after node failure (a
// restarted server comes back empty). Each pass walks the keyspace one
// way: if a membership view change left a migration source pending, it
// drains the sources (Client.MigrateKey refills what the new ring names
// and drops what only the old ring named); otherwise it scrubs
// (Client.Verify, then Client.Repair where degraded). No scrub repairs
// a key against the current ring while its data may sit where only an
// older ring places it: a source queued mid-scrub cuts the scrub short,
// and a timed pass whose drain leaves a source pending scrubs only the
// keys already moved, so a source that cannot drain (a departed holder
// that never answers) does not stop anti-entropy for the rest.
//
// Recovery traffic, not foreground traffic, saturates erasure-coded
// clusters (Rashmi et al.), so every pass spends one keys/sec rate and
// one concurrency bound. Passes run on a periodic interval and on kicks: Kick, a suspect
// server answering again (Client.OnServerRecovered), and every adopted
// view (Client.OnViewChange), which also queues the outgoing view as a
// source, so `ring add` / `ring remove` start draining by themselves.
package scrub

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/hashring"
	"ecstore/internal/membership"
	"ecstore/internal/metrics"
	"ecstore/internal/stats"
)

const (
	// DefaultInterval is the period between timed passes.
	DefaultInterval = 5 * time.Minute
	// DefaultRate caps the keyspace walk at this many keys per second.
	DefaultRate = 1000.0
	// DefaultMaxConcurrent bounds the in-flight per-key calls of a walk.
	DefaultMaxConcurrent = 4
	// maxPendingSources bounds the queued old views; beyond it the
	// OLDEST sources fold together (migrating from an older ring
	// subsumes the intermediate placements for any key both moved).
	maxPendingSources = 8
	// retryAfter is how long the loop waits to re-run a pass that left
	// a source pending: its failed holders may be mid-restart.
	retryAfter = time.Second
)

// Client is the slice of core.Client the daemon needs: ScanKeysOn
// lists the logical keys stored on addrs, Verify/Repair/MigrateKey
// converge one key, View is the current membership view, and New
// registers its hooks with OnServerRecovered and OnViewChange. It is an
// interface so tests can exercise the daemon's control flow (fallback
// paths, error accounting, pass choice) without a live cluster.
type Client interface {
	ScanKeysOn(addrs []string) ([]string, error)
	Verify(key string) (bool, error)
	Repair(key string) (core.RepairReport, error)
	MigrateKey(key string, oldRing *hashring.Ring) (core.MigrateReport, error)
	View() membership.View
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
	// Rate caps a walk at this many keys per second, healthy and
	// unmoved keys included, so a pass costs bounded cluster I/O
	// (DefaultRate if zero; negative: unthrottled).
	Rate float64
	// MaxConcurrent bounds in-flight per-key calls
	// (DefaultMaxConcurrent if zero or less).
	MaxConcurrent int
	// Metrics receives the ecstore_scrub_*/_migration_* series, if set.
	Metrics *metrics.Registry
	// OnCycle, if set, receives the report of every background pass.
	OnCycle func(Report)
	// Logf receives diagnostics (discarded if nil).
	Logf func(format string, args ...any)
}

// Report summarizes one pass. Sources is how many queued old views it
// drained from and Scanned how many logical keys it visited: Healthy
// ones needed nothing, Repaired ones had redundancy restored, Moved
// ones had data relocated to the current ring, and Failed ones did not
// converge (a drain leaves their source queued for retry). Refilled and
// Dropped count the chunks/replicas written (by repair or migration)
// and drained, BytesMoved the refills' payload. Err is the pass-level
// error (a scan failed).
type Report struct {
	Sources, Scanned, Healthy, Repaired, Moved int
	Refilled, Dropped                          int
	BytesMoved                                 int64
	Failed                                     int
	Duration                                   time.Duration // wall-clock length of the pass
	Err                                        error
}

// String renders the report on one line.
func (r Report) String() string {
	s := fmt.Sprintf("sources=%d scanned=%d healthy=%d repaired=%d moved=%d refilled=%d dropped=%d bytes=%d failed=%d in %v",
		r.Sources, r.Scanned, r.Healthy, r.Repaired, r.Moved, r.Refilled, r.Dropped, r.BytesMoved, r.Failed,
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
	r.Moved += o.Moved
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
	workers  int
	kick     chan struct{}

	// The loop's series, counting every pass.
	mCycles, mKicks, mKeysScanned *metrics.Counter
	gInProgress                   *metrics.Gauge
	hCycleSeconds                 *stats.Histogram
	// The scrub walk's series.
	mKeysHealthy, mKeysRepaired, mKeysFailed, mRewritten *metrics.Counter
	gLastDone                                            *metrics.Gauge
	// The drain walk's series.
	mKeysMoved, mMoveFailed, mRefilled, mChunksDrop, mBytesMoved *metrics.Counter
	gPending                                                     *metrics.Gauge

	mu      sync.Mutex
	pending []membership.View // queued old views, oldest first
	queued  chan struct{}     // closed and replaced by Enqueue
	stop    chan struct{}     // closed by Stop; nil while stopped
	wg      sync.WaitGroup
}

// New returns a Daemon for cfg and registers its hooks on the client: a
// recovered server kicks a pass; an adopted view queues the old one and
// kicks.
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
		workers:  cfg.MaxConcurrent,
		kick:     make(chan struct{}, 1),
		queued:   make(chan struct{}),

		mCycles:       reg.Counter("ecstore_scrub_cycles_total"),
		mKicks:        reg.Counter("ecstore_scrub_kicks_total"),
		mKeysScanned:  reg.Counter("ecstore_scrub_keys_scanned_total"),
		gInProgress:   reg.Gauge("ecstore_scrub_in_progress"),
		hCycleSeconds: reg.Histogram("ecstore_scrub_cycle_seconds"),
		mKeysHealthy:  reg.Counter("ecstore_scrub_keys_healthy_total"),
		mKeysRepaired: reg.Counter("ecstore_scrub_keys_repaired_total"),
		mKeysFailed:   reg.Counter("ecstore_scrub_keys_failed_total"),
		mRewritten:    reg.Counter("ecstore_scrub_rewrites_total"),
		gLastDone:     reg.Gauge("ecstore_scrub_last_completed_unix"),
		mKeysMoved:    reg.Counter("ecstore_migration_keys_moved_total"),
		mMoveFailed:   reg.Counter("ecstore_migration_keys_failed_total"),
		mRefilled:     reg.Counter("ecstore_migration_refills_total"),
		mChunksDrop:   reg.Counter("ecstore_migration_chunks_dropped_total"),
		mBytesMoved:   reg.Counter("ecstore_migration_bytes_moved_total"),
		gPending:      reg.Gauge("ecstore_migration_pending_sources"),
	}
	if d.logf == nil {
		d.logf = func(string, ...any) {}
	}
	if rate := cmp.Or(cfg.Rate, DefaultRate); rate > 0 { // negative: unthrottled
		d.perKey = time.Duration(float64(time.Second) / rate)
	}
	if d.workers <= 0 {
		d.workers = DefaultMaxConcurrent
	}
	cfg.Client.OnServerRecovered(func(addr string) {
		d.logf("scrub: server %s recovered, kicking a pass", addr)
		d.Kick()
	})
	cfg.Client.OnViewChange(func(old, _ membership.View) {
		d.Enqueue(old)
		d.Kick()
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
// between keys and waiting for it. The daemon can be started again.
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

// Enqueue queues old as a migration source, so the next pass drains
// instead of scrubbing (deduplicated by epoch; bounded — see
// maxPendingSources).
func (d *Daemon) Enqueue(old membership.View) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if slices.ContainsFunc(d.pending, func(v membership.View) bool { return v.Epoch == old.Epoch }) {
		return
	}
	d.pending = append(d.pending, old)
	if len(d.pending) > maxPendingSources {
		// Fold the two oldest: any key the older ring placed differently
		// is mis-placed relative to the next source too, and MigrateKey
		// probes both rings' holders, so it moves from wherever it is.
		d.pending = d.pending[1:]
	}
	close(d.queued)
	d.queued = make(chan struct{})
	d.gPending.Set(int64(len(d.pending)))
}

// Pending reports how many migration sources are queued.
func (d *Daemon) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
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
		timed := false
		select {
		case <-stop:
			return
		case <-tick:
			timed = true
		case <-d.kick:
		case <-retry:
		}
		report := d.pass(stop, timed)
		d.logf("scrub: pass complete: %s", report)
		if d.onCycle != nil {
			d.onCycle(report)
		}
		// A pass that leaves a source pending failed part-way, and
		// nothing else will kick it: run it again after retryAfter.
		retry = nil
		if d.Pending() > 0 {
			retry = time.After(retryAfter)
		}
	}
}

// RunCycle runs one pass synchronously and returns its report: it
// drains the pending migration sources if there are any and scrubs the
// keyspace otherwise. A closed cancel interrupts it between keys.
func (d *Daemon) RunCycle(cancel <-chan struct{}) Report { return d.pass(cancel, false) }

// pass runs one pass. A timed one scrubs after draining, too, skipping
// the keys the drain could not move.
func (d *Daemon) pass(cancel <-chan struct{}, timed bool) Report {
	start := time.Now()
	d.gInProgress.Set(1)
	d.mu.Lock()
	draining, queued := len(d.pending) > 0, d.queued
	d.mu.Unlock()
	var report Report
	var unmoved map[string]bool
	if draining {
		unmoved = d.drain(cancel, &report)
	}
	if !draining || timed && unmoved != nil {
		d.scrub(cancel, queued, unmoved, &report)
	}
	d.gInProgress.Set(0)
	report.Duration = time.Since(start)
	d.mCycles.Inc()
	d.hCycleSeconds.Record(report.Duration)
	return report
}

// scrub verifies, and repairs where degraded, every key of the current
// view but those in skip; a closed queued (a source queued since the
// pass began) cuts the walk short. The last-completed gauge moves only
// when the scan succeeded and the walk started every key.
func (d *Daemon) scrub(cancel, queued <-chan struct{}, skip map[string]bool, report *Report) {
	keys, err := d.client.ScanKeysOn(d.client.View().Servers)
	if err != nil {
		d.logf("scrub: scan failed: %v", err)
		report.Err = err
		return
	}
	n := len(keys)
	keys = slices.DeleteFunc(keys, func(k string) bool { return skip[k] })
	walked := d.walk(keys, cancel, queued, d.scrubKey)
	report.add(walked)
	if walked.Scanned == n {
		d.gLastDone.Set(time.Now().Unix())
	}
}

// scrubKey verifies one key and repairs it when degraded.
func (d *Daemon) scrubKey(key string) Report {
	ok, err := d.client.Verify(key)
	switch {
	case err == nil && ok, errors.Is(err, core.ErrNotFound):
		// Healthy, or deleted (or expired) since the scan.
		d.mKeysHealthy.Inc()
		return Report{Healthy: 1}
	case err != nil:
		// Transient failure (e.g. unreachable holders): repair still
		// probes the same locations and rewrites whatever it can.
		d.logf("scrub: verify %q: %v", key, err)
	}

	rep, err := d.client.Repair(key)
	switch {
	case errors.Is(err, core.ErrNotFound), err == nil && rep.Missing == 0:
		// Deleted since, or Verify was pessimistic (or raced a
		// concurrent write): the probe found full redundancy.
		d.mKeysHealthy.Inc()
		return Report{Healthy: 1}
	case err != nil:
		d.mKeysFailed.Inc()
		d.logf("scrub: repair %q: %v", key, err)
		return Report{Failed: 1}
	}
	d.mRewritten.Add(int64(rep.Rewritten))
	out := Report{Repaired: min(rep.Rewritten, 1), Refilled: rep.Rewritten, BytesMoved: rep.BytesMoved}
	if rep.Rewritten < rep.Missing {
		// Partial repair (a holder is still down): count the work done
		// but flag the key as not converged yet.
		d.mKeysFailed.Inc()
		out.Failed = 1
	} else {
		d.mKeysRepaired.Inc()
	}
	return out
}

// drain migrates from every pending source, oldest first; sources
// arriving mid-pass are drained in the same pass. A key that fails to
// migrate from one source is skipped by every later one, and a source
// that failed or skipped a key stays queued. It returns the keys not yet
// moved, or nil if a scan failed or the walk was cut short. A source's
// scan covers both views' servers: the old ring's may hold the data.
func (d *Daemon) drain(cancel <-chan struct{}, report *Report) map[string]bool {
	unmoved, tried := map[string]bool{}, map[uint64]bool{}
	for {
		d.mu.Lock()
		i := slices.IndexFunc(d.pending, func(v membership.View) bool { return !tried[v.Epoch] })
		if i < 0 {
			d.mu.Unlock()
			return unmoved
		}
		src := d.pending[i]
		d.mu.Unlock()
		tried[src.Epoch] = true

		report.Sources++
		keys, err := d.client.ScanKeysOn(append(slices.Clone(src.Servers), d.client.View().Servers...))
		if err != nil {
			d.logf("scrub: migration scan failed: %v", err)
			report.Err = err
			return nil
		}
		n := len(keys)
		keys = slices.DeleteFunc(keys, func(k string) bool { return unmoved[k] })
		oldRing := hashring.Build(0, src.Servers)
		var mu sync.Mutex
		walked := d.walk(keys, cancel, nil, func(key string) Report {
			r := d.migrateKey(key, oldRing)
			if r.Failed > 0 {
				mu.Lock()
				unmoved[key] = true
				mu.Unlock()
			}
			return r
		})
		report.add(walked)
		if walked.Scanned < len(keys) {
			return nil
		}
		if walked.Scanned == n && walked.Failed == 0 {
			d.mu.Lock()
			d.pending = slices.DeleteFunc(d.pending, func(v membership.View) bool { return v.Epoch == src.Epoch })
			d.gPending.Set(int64(len(d.pending)))
			d.mu.Unlock()
		}
	}
}

// migrateKey moves one key from oldRing's placement to the current one.
func (d *Daemon) migrateKey(key string, oldRing *hashring.Ring) Report {
	rep, err := d.client.MigrateKey(key, oldRing)
	out := Report{Refilled: rep.Refilled, Dropped: rep.Dropped, BytesMoved: rep.BytesMoved}
	if err != nil && !errors.Is(err, core.ErrNotFound) {
		// An absent key (deleted since the scan) has converged.
		d.mMoveFailed.Inc()
		d.logf("scrub: migrate %q: %v", key, err)
		out.Failed = 1
	}
	if rep.Moved {
		d.mKeysMoved.Inc()
		out.Moved = 1
	}
	d.mRefilled.Add(int64(rep.Refilled))
	d.mChunksDrop.Add(int64(rep.Dropped))
	d.mBytesMoved.Add(rep.BytesMoved)
	return out
}

// walk calls do for each key in order, each on a goroutine of its own,
// at most MaxConcurrent at a time, and returns the sum of their reports
// once every call has returned, with Scanned the number of keys it
// started. Keys are paced on a fixed-rate schedule, not a fixed sleep:
// key i is due at start + i/Rate, however long the calls before it
// took. A closed cancel stops the walk between keys (and its wait for
// the next one), a closed queued between keys; Scanned below len(keys)
// means it was cut short.
func (d *Daemon) walk(keys []string, cancel, queued <-chan struct{}, do func(key string) Report) Report {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		sum     Report
		started int
	)
	sem := make(chan struct{}, d.workers)
	next := time.Now()
walk:
	for _, key := range keys {
		select {
		case <-cancel:
			break walk
		case <-queued:
			break walk
		default:
		}
		if wait := time.Until(next); d.perKey > 0 && wait > 0 {
			select {
			case <-time.After(wait):
			case <-cancel:
				break walk
			}
		}
		next = next.Add(d.perKey)
		d.mKeysScanned.Inc()
		started++
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := do(key)
			<-sem
			mu.Lock()
			sum.add(r)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sum.Scanned = started
	return sum
}
