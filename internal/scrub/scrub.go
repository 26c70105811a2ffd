// Package scrub implements the anti-entropy daemon: a background loop
// that walks the cluster's keyspace (Client.ScanKeys), verifies each
// key's redundancy (Client.Verify) and repairs what is degraded
// (Client.Repair), at a configurable rate so recovery traffic cannot
// starve foreground I/O.
//
// It closes the paper's open future-work item of redundancy recovery
// after node failure: a crashed-and-restarted server comes back empty,
// and without a scrubber its share of every stripe stays lost until an
// operator happens to Repair the right keys by hand. The design
// follows two results from the related literature: MemEC's
// degraded-mode state machine argues for an explicit recovery path
// back to full redundancy, and Rashmi et al.'s Facebook warehouse
// study shows reconstruction traffic must be throttled — hence the
// keys/sec rate limit and the bounded repair concurrency.
//
// Cycles run on a periodic interval and are additionally kicked by the
// rpc health tracker's suspect-to-recovered transition (wired through
// core.Client.OnServerRecovered), so a rejoining server is re-filled
// promptly instead of waiting out the interval.
package scrub

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/metrics"
	"ecstore/internal/paced"
)

// Defaults for the daemon's tunables.
const (
	// DefaultInterval is the period between scrub cycles.
	DefaultInterval = 5 * time.Minute
	// DefaultRate caps keyspace walking at this many keys per second.
	DefaultRate = 1000.0
	// DefaultMaxConcurrent bounds simultaneous in-flight repairs.
	DefaultMaxConcurrent = paced.DefaultMaxConcurrent
)

// Client is the slice of core.Client the daemon needs. It is an
// interface so tests can exercise the daemon's control flow (fallback
// paths, error accounting) without a live cluster.
type Client interface {
	// ScanKeys returns the deduplicated logical keys of the cluster.
	ScanKeys() ([]string, error)
	// Verify reports whether key has full, consistent redundancy.
	Verify(key string) (bool, error)
	// Repair restores key's redundancy and reports what it did.
	Repair(key string) (core.RepairReport, error)
}

// recoverable is the optional wiring hook: a client that can report
// suspect-to-recovered transitions (core.Client does) gets the
// daemon's Kick registered automatically by New.
type recoverable interface {
	OnServerRecovered(fn func(addr string))
}

// Config configures a Daemon.
type Config struct {
	// Client performs the scan/verify/repair operations (required).
	Client Client
	// Interval is the period between cycles (DefaultInterval if zero;
	// negative disables the periodic timer, leaving only Kick and
	// RunCycle).
	Interval time.Duration
	// Rate throttles the keyspace walk to this many keys per second;
	// both healthy and degraded keys count, so a scrub pass over a
	// mostly-healthy keyspace costs a predictable, bounded amount of
	// cluster I/O (DefaultRate if zero; negative disables throttling).
	Rate float64
	// MaxConcurrent bounds in-flight repairs (DefaultMaxConcurrent if
	// zero).
	MaxConcurrent int
	// Metrics receives the scrub counters and the cycle-duration
	// histogram (ecstore_scrub_*). Nil discards them.
	Metrics *metrics.Registry
	// OnCycle, when non-nil, receives every completed cycle's report
	// (the kvcli scrub loop prints these; tests synchronize on them).
	OnCycle func(Report)
	// Logf receives diagnostics (discarded if nil).
	Logf func(format string, args ...any)
}

// Report summarizes one scrub cycle.
type Report struct {
	// Scanned is the number of logical keys the cycle visited.
	Scanned int
	// Healthy is how many verified clean and needed nothing.
	Healthy int
	// Repaired is how many keys had redundancy restored.
	Repaired int
	// Rewritten is the total chunks/replicas rewritten across all
	// repairs.
	Rewritten int
	// Failed is how many keys could not be verified or repaired.
	Failed int
	// Duration is the wall-clock length of the cycle.
	Duration time.Duration
	// Err is the cycle-level error (scan failed), nil otherwise.
	Err error
}

// String renders the report on one line.
func (r Report) String() string {
	s := fmt.Sprintf("scanned=%d healthy=%d repaired=%d rewritten=%d failed=%d in %v",
		r.Scanned, r.Healthy, r.Repaired, r.Rewritten, r.Failed, r.Duration.Round(time.Millisecond))
	if r.Err != nil {
		s += fmt.Sprintf(" (error: %v)", r.Err)
	}
	return s
}

// Daemon is the background scrubber: the scan-verify-repair task on a
// paced.Runner, which owns the loop, the pacing and the cycle
// bookkeeping. Create with New, then Start; a stopped daemon can be
// restarted.
type Daemon struct {
	cfg Config
	run *paced.Runner

	mKeysHealthy  *metrics.Counter
	mKeysRepaired *metrics.Counter
	mKeysFailed   *metrics.Counter
	mRewritten    *metrics.Counter
	gLastDone     *metrics.Gauge
}

// New returns a Daemon for cfg. If cfg.Client also implements
// OnServerRecovered (core.Client does), the daemon's Kick is registered
// so a recovering server triggers a prompt cycle.
func New(cfg Config) (*Daemon, error) {
	if cfg.Client == nil {
		return nil, errors.New("scrub: Config.Client is required")
	}
	reg := cfg.Metrics
	d := &Daemon{
		cfg:           cfg,
		mKeysHealthy:  reg.Counter("ecstore_scrub_keys_healthy_total"),
		mKeysRepaired: reg.Counter("ecstore_scrub_keys_repaired_total"),
		mKeysFailed:   reg.Counter("ecstore_scrub_keys_failed_total"),
		mRewritten:    reg.Counter("ecstore_scrub_rewrites_total"),
		gLastDone:     reg.Gauge("ecstore_scrub_last_completed_unix"),
	}
	d.run = paced.New(paced.Config{
		Name:          "scrub",
		Interval:      cmp.Or(cfg.Interval, DefaultInterval), // negative: no periodic timer
		Rate:          cmp.Or(cfg.Rate, DefaultRate),         // negative: unthrottled
		MaxConcurrent: cfg.MaxConcurrent,
		Metrics:       reg,
		Logf:          cfg.Logf,
	}, func(cancel <-chan struct{}) bool {
		report := d.RunCycle(cancel)
		d.run.Logf("scrub: cycle complete: %s", report)
		if cfg.OnCycle != nil {
			cfg.OnCycle(report)
		}
		return false // the next tick or recovery kick is the retry
	})
	if r, ok := cfg.Client.(recoverable); ok {
		r.OnServerRecovered(func(addr string) {
			d.run.Logf("scrub: server %s recovered, kicking cycle", addr)
			d.Kick()
		})
	}
	return d, nil
}

// Start launches the background loop: one cycle per interval, plus any
// kicked cycles. Calling Start on a running daemon is a no-op.
func (d *Daemon) Start() { d.run.Start() }

// Stop halts the background loop, waiting for an in-flight cycle to
// finish. The daemon can be started again afterwards.
func (d *Daemon) Stop() { d.run.Stop() }

// Kick requests an immediate cycle. It never blocks: if a kick is
// already pending (or a kicked cycle is running), the request folds
// into it — repeated recovery events during one outage cost one extra
// cycle, not one per event.
func (d *Daemon) Kick() { d.run.Kick() }

// RunCycle performs one full scrub pass synchronously and returns its
// report. A nil cancel channel runs to completion; the background loop
// passes its stop channel so Stop interrupts a cycle between keys.
func (d *Daemon) RunCycle(cancel <-chan struct{}) Report {
	var report Report
	report.Duration = d.run.Cycle(func() {
		keys, err := d.cfg.Client.ScanKeys()
		if err != nil {
			d.run.Logf("scrub: scan failed: %v", err)
			report.Err = err
			return
		}
		var mu sync.Mutex
		report.Scanned = d.run.Walk(keys, cancel, func(key string) {
			healthy, repaired, rewritten, failed := d.scrubKey(key)
			mu.Lock()
			defer mu.Unlock()
			if healthy {
				report.Healthy++
			}
			if repaired {
				report.Repaired++
			}
			report.Rewritten += rewritten
			if failed {
				report.Failed++
			}
		})
	})
	d.gLastDone.Set(time.Now().Unix())
	return report
}

// scrubKey verifies one key and repairs it when degraded.
func (d *Daemon) scrubKey(key string) (healthy, repaired bool, rewritten int, failed bool) {
	ok, err := d.cfg.Client.Verify(key)
	switch {
	case err == nil && ok:
		d.mKeysHealthy.Inc()
		return true, false, 0, false
	case err != nil && errors.Is(err, core.ErrNotFound):
		// Deleted (or fully expired) between scan and verify: nothing
		// to maintain. The next cycle will not see it.
		d.mKeysHealthy.Inc()
		return true, false, 0, false
	case err != nil:
		// Transient verification failure (e.g. unreachable holders):
		// attempting repair is still correct — it probes the same
		// locations and rewrites whatever it can.
		d.run.Logf("scrub: verify %q: %v", key, err)
	}

	rep, err := d.cfg.Client.Repair(key)
	if err != nil {
		if errors.Is(err, core.ErrNotFound) {
			d.mKeysHealthy.Inc()
			return true, false, 0, false
		}
		d.mKeysFailed.Inc()
		d.run.Logf("scrub: repair %q: %v", key, err)
		return false, false, 0, true
	}
	if rep.Rewritten < rep.Missing {
		// Partial repair (a holder is still down): count the work done
		// but flag the key so the report shows the keyspace has not
		// converged yet.
		d.mKeysFailed.Inc()
		d.mRewritten.Add(int64(rep.Rewritten))
		return false, rep.Rewritten > 0, rep.Rewritten, true
	}
	if rep.Missing == 0 {
		// Verify was pessimistic (or raced a concurrent write); the
		// probe found full redundancy.
		d.mKeysHealthy.Inc()
		return true, false, 0, false
	}
	d.mKeysRepaired.Inc()
	d.mRewritten.Add(int64(rep.Rewritten))
	return false, true, rep.Rewritten, false
}
