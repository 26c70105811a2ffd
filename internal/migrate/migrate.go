// Package migrate implements the online rebalancing scheduler: when
// the membership view changes epoch, every key whose ring placement
// differs between the outgoing and incoming views must move — refilled
// at the holders the new ring names, drained from the holders only the
// old ring named. The daemon walks the keyspace of the union of both
// views' servers and runs core.Client.MigrateKey per key, rate-limited
// and with bounded concurrency so rebalancing traffic cannot starve
// foreground I/O — the same budget discipline as the scrub daemon,
// applied to planned movement instead of failure repair.
//
// Epoch changes queue as sources: each pending source is one old view
// whose ring the migration reads from. A cycle drains every pending
// source oldest-first; sources arriving mid-cycle queue for the next.
// The daemon is wired to the client's view-change hook (Attach), so a
// `ring add` / `ring remove` starts draining automatically.
package migrate

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
	"ecstore/internal/paced"
)

// Defaults for the daemon's tunables.
const (
	// DefaultRate caps the migration walk at this many keys per second.
	DefaultRate = 500.0
	// DefaultMaxConcurrent bounds simultaneous in-flight key moves.
	DefaultMaxConcurrent = paced.DefaultMaxConcurrent
	// maxPendingSources bounds the queued old views; beyond it the
	// OLDEST sources fold together (migrating from an older ring
	// subsumes the intermediate placements for any key both moved).
	maxPendingSources = 8
)

// Client is the slice of core.Client the daemon needs; an interface so
// tests can drive the control flow without a live cluster.
type Client interface {
	// ScanKeysOn returns the deduplicated logical keys stored on addrs.
	ScanKeysOn(addrs []string) ([]string, error)
	// MigrateKey moves one key from oldRing's placement to the current.
	MigrateKey(key string, oldRing *hashring.Ring) (core.MigrateReport, error)
	// View is the client's current membership view.
	View() membership.View
}

// viewChangeable is the optional wiring hook Attach uses; core.Client
// implements it.
type viewChangeable interface {
	OnViewChange(fn func(old, new membership.View))
}

// Config configures a Daemon.
type Config struct {
	// Client performs the scan/migrate operations (required).
	Client Client
	// Rate throttles the keyspace walk to this many keys per second —
	// the migration budget: unchanged keys count too, so one cycle's
	// cluster I/O is bounded and predictable (DefaultRate if zero;
	// negative disables throttling).
	Rate float64
	// MaxConcurrent bounds in-flight key moves (DefaultMaxConcurrent if
	// zero).
	MaxConcurrent int
	// Metrics receives the migration counters (ecstore_migration_*).
	// Nil discards them.
	Metrics *metrics.Registry
	// OnCycle, when non-nil, receives every completed cycle's report.
	OnCycle func(Report)
	// Logf receives diagnostics (discarded if nil).
	Logf func(format string, args ...any)
}

// Report summarizes one migration cycle (all pending sources drained).
type Report struct {
	// Sources is how many queued old views the cycle drained.
	Sources int
	// Scanned is the number of logical keys visited.
	Scanned int
	// Moved is how many keys had data actually relocated.
	Moved int
	// Refilled / Dropped / BytesMoved aggregate the per-key reports.
	Refilled   int
	Dropped    int
	BytesMoved int64
	// Failed is how many keys could not be fully migrated (retried next
	// cycle — the source stays queued when any key failed).
	Failed int
	// Duration is the wall-clock length of the cycle.
	Duration time.Duration
	// Err is the cycle-level error (scan failed), nil otherwise.
	Err error
}

// String renders the report on one line.
func (r Report) String() string {
	s := fmt.Sprintf("sources=%d scanned=%d moved=%d refilled=%d dropped=%d bytes=%d failed=%d in %v",
		r.Sources, r.Scanned, r.Moved, r.Refilled, r.Dropped, r.BytesMoved, r.Failed,
		r.Duration.Round(time.Millisecond))
	if r.Err != nil {
		s += fmt.Sprintf(" (error: %v)", r.Err)
	}
	return s
}

// Daemon is the background migration scheduler: the drain-the-pending-
// sources task on a paced.Runner, which owns the loop, the pacing and
// the cycle bookkeeping. Create with New, then Start; a stopped daemon
// can be restarted.
type Daemon struct {
	cfg Config
	run *paced.Runner

	mKeysMoved  *metrics.Counter
	mKeysFailed *metrics.Counter
	mRefilled   *metrics.Counter
	mChunksDrop *metrics.Counter
	mBytesMoved *metrics.Counter
	gPending    *metrics.Gauge

	mu      sync.Mutex
	pending []membership.View // queued old views, oldest first
}

// New returns a Daemon for cfg.
func New(cfg Config) (*Daemon, error) {
	if cfg.Client == nil {
		return nil, errors.New("migrate: Config.Client is required")
	}
	reg := cfg.Metrics
	d := &Daemon{
		cfg:         cfg,
		mKeysMoved:  reg.Counter("ecstore_migration_keys_moved_total"),
		mKeysFailed: reg.Counter("ecstore_migration_keys_failed_total"),
		mRefilled:   reg.Counter("ecstore_migration_refills_total"),
		mChunksDrop: reg.Counter("ecstore_migration_chunks_dropped_total"),
		mBytesMoved: reg.Counter("ecstore_migration_bytes_moved_total"),
		gPending:    reg.Gauge("ecstore_migration_pending_sources"),
	}
	d.run = paced.New(paced.Config{
		Name:          "migration",
		Rate:          cmp.Or(cfg.Rate, DefaultRate), // negative: unthrottled
		MaxConcurrent: cfg.MaxConcurrent,
		Metrics:       reg,
		Logf:          cfg.Logf,
	}, func(cancel <-chan struct{}) bool {
		report := d.RunCycle(cancel)
		d.run.Logf("migrate: cycle complete: %s", report)
		if cfg.OnCycle != nil {
			cfg.OnCycle(report)
		}
		// A failed pass leaves its source queued and nothing else will
		// kick it: ask to run again.
		return report.Err != nil || report.Failed > 0
	})
	return d, nil
}

// Attach registers the daemon on the client's view-change hook: every
// adopted epoch queues the outgoing view as a migration source and
// kicks a cycle. Returns false when the client has no such hook.
func (d *Daemon) Attach(c any) bool {
	vc, ok := c.(viewChangeable)
	if !ok {
		return false
	}
	vc.OnViewChange(func(old, _ membership.View) {
		d.Enqueue(old)
		d.Kick()
	})
	return true
}

// Enqueue queues old as a migration source (deduplicated by epoch;
// bounded — see maxPendingSources).
func (d *Daemon) Enqueue(old membership.View) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if slices.ContainsFunc(d.pending, func(v membership.View) bool { return v.Epoch == old.Epoch }) {
		return
	}
	d.pending = append(d.pending, old)
	if len(d.pending) > maxPendingSources {
		// Fold the two oldest: dropping the older ring is safe because
		// any key it placed differently is also mis-placed relative to
		// the next source and gets moved from wherever it actually is —
		// MigrateKey probes both rings' holders.
		d.pending = d.pending[1:]
	}
	d.gPending.Set(int64(len(d.pending)))
}

// Pending reports how many migration sources are queued.
func (d *Daemon) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// Start launches the background loop: one cycle per kick (Enqueue via
// Attach kicks automatically). Calling Start on a running daemon is a
// no-op.
func (d *Daemon) Start() { d.run.Start() }

// Stop halts the background loop, waiting for an in-flight cycle to
// finish. The daemon can be started again afterwards.
func (d *Daemon) Stop() { d.run.Stop() }

// Kick requests an immediate cycle; it never blocks, and repeated
// kicks fold into one pending cycle.
func (d *Daemon) Kick() { d.run.Kick() }

// RunCycle drains every pending migration source synchronously and
// returns the aggregate report. A nil cancel channel runs to
// completion; the background loop passes its stop channel so Stop
// interrupts a cycle between keys. A source whose pass failed for any
// key, or was cut short, stays queued for retry.
func (d *Daemon) RunCycle(cancel <-chan struct{}) Report {
	var report Report
	report.Duration = d.run.Cycle(func() {
		for clean := true; clean; {
			d.mu.Lock()
			if len(d.pending) == 0 {
				d.mu.Unlock()
				return
			}
			src := d.pending[0]
			d.mu.Unlock()

			failed := report.Failed
			clean = d.runSource(src, cancel, &report) && report.Failed == failed
			if clean {
				d.mu.Lock()
				d.pending = slices.DeleteFunc(d.pending, func(v membership.View) bool { return v.Epoch == src.Epoch })
				d.gPending.Set(int64(len(d.pending)))
				d.mu.Unlock()
			}
		}
	})
	return report
}

// runSource migrates every key for one queued old view, folding each
// key's outcome into report, and reports whether the walk covered the
// whole scan.
func (d *Daemon) runSource(src membership.View, cancel <-chan struct{}, report *Report) bool {
	report.Sources++
	cur := d.cfg.Client.View()
	oldRing := hashring.Build(0, src.Servers)
	scanOn := append(append([]string{}, src.Servers...), cur.Servers...)
	keys, err := d.cfg.Client.ScanKeysOn(scanOn)
	if err != nil {
		d.run.Logf("migrate: scan failed: %v", err)
		report.Err = err
		return false
	}
	var mu sync.Mutex
	walked := d.run.Walk(keys, cancel, func(key string) {
		rep, err := d.cfg.Client.MigrateKey(key, oldRing)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && !errors.Is(err, core.ErrNotFound) {
			d.mKeysFailed.Inc()
			report.Failed++
			d.run.Logf("migrate: %q: %v", key, err)
		}
		if rep.Moved {
			d.mKeysMoved.Inc()
			report.Moved++
		}
		report.Refilled += rep.Refilled
		report.Dropped += rep.Dropped
		report.BytesMoved += rep.BytesMoved
		d.mRefilled.Add(int64(rep.Refilled))
		d.mChunksDrop.Add(int64(rep.Dropped))
		d.mBytesMoved.Add(rep.BytesMoved)
	})
	report.Scanned += walked
	return walked == len(keys)
}
