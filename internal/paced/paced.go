// Package paced is the mechanism the background daemons share — the
// anti-entropy scrubber (internal/scrub) and the rebalancing scheduler
// (internal/migrate) are each one task on a Runner: a restartable loop
// that runs a pass per tick or kick, and a keyspace walk at a fixed
// rate with bounded concurrency, so background traffic cannot starve
// foreground I/O (Rashmi et al.: recovery traffic, not foreground
// traffic, is what saturates erasure-coded clusters). The Runner owns
// when and how fast; the task owns what to scan, what to do per key,
// how a key's outcome folds into its report and when a pass is clean.
package paced

import (
	"sync"
	"time"

	"ecstore/internal/metrics"
	"ecstore/internal/stats"
)

// DefaultMaxConcurrent bounds the in-flight per-key calls of a walk
// when Config.MaxConcurrent is unset.
const DefaultMaxConcurrent = 4

// retryAfter is how long the loop waits before re-running a pass that
// asked for a retry: shortly, rather than spinning — the holders that
// failed it may be mid-restart.
const retryAfter = time.Second

// Config configures a Runner.
type Config struct {
	// Name is the task's name in its metrics: ecstore_<Name>_cycles_total,
	// _kicks_total, _keys_scanned_total, _in_progress and _cycle_seconds.
	Name string
	// Interval is the period between timed passes; zero or less leaves
	// only kicks.
	Interval time.Duration
	// Rate is the walk's pace in keys per second; zero or less walks
	// unthrottled.
	Rate float64
	// MaxConcurrent bounds in-flight per-key calls
	// (DefaultMaxConcurrent if zero or less).
	MaxConcurrent int
	// Metrics receives the series above. Nil discards them.
	Metrics *metrics.Registry
	// Logf receives diagnostics (discarded if nil).
	Logf func(format string, args ...any)
}

// Runner runs one task's passes. Create with New, then Start; a stopped
// Runner can be started again.
type Runner struct {
	// Logf is Config.Logf, never nil.
	Logf func(format string, args ...any)

	pass     func(cancel <-chan struct{}) (retry bool)
	interval time.Duration
	perKey   time.Duration // walk spacing, 0 = unthrottled
	workers  int

	mCycles       *metrics.Counter
	mKicks        *metrics.Counter
	mKeysScanned  *metrics.Counter
	gInProgress   *metrics.Gauge
	hCycleSeconds *stats.Histogram

	kick chan struct{}

	mu      sync.Mutex
	stop    chan struct{}
	running bool
	wg      sync.WaitGroup
}

// New returns a Runner whose loop calls pass once per tick or kick.
// pass gets the channel that Stop closes and reports whether it wants
// to run again shortly (it failed part-way and nothing else will kick
// it).
func New(cfg Config, pass func(cancel <-chan struct{}) (retry bool)) *Runner {
	r := &Runner{
		Logf:     cfg.Logf,
		pass:     pass,
		interval: cfg.Interval,
		workers:  cfg.MaxConcurrent,
		kick:     make(chan struct{}, 1),

		mCycles:       cfg.Metrics.Counter("ecstore_" + cfg.Name + "_cycles_total"),
		mKicks:        cfg.Metrics.Counter("ecstore_" + cfg.Name + "_kicks_total"),
		mKeysScanned:  cfg.Metrics.Counter("ecstore_" + cfg.Name + "_keys_scanned_total"),
		gInProgress:   cfg.Metrics.Gauge("ecstore_" + cfg.Name + "_in_progress"),
		hCycleSeconds: cfg.Metrics.Histogram("ecstore_" + cfg.Name + "_cycle_seconds"),
	}
	if r.Logf == nil {
		r.Logf = func(string, ...any) {}
	}
	if cfg.Rate > 0 {
		r.perKey = time.Duration(float64(time.Second) / cfg.Rate)
	}
	if r.workers <= 0 {
		r.workers = DefaultMaxConcurrent
	}
	return r
}

// Start launches the background loop. Calling Start on a running Runner
// is a no-op.
func (r *Runner) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return
	}
	r.running = true
	r.stop = make(chan struct{})
	r.wg.Add(1)
	go r.loop(r.stop)
}

// Stop halts the background loop, waiting for an in-flight pass to
// finish. The Runner can be started again afterwards.
func (r *Runner) Stop() {
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return
	}
	r.running = false
	close(r.stop)
	r.mu.Unlock()
	r.wg.Wait()
}

// Kick requests an immediate pass. It never blocks: if a kick is
// already pending the request folds into it — repeated events during
// one outage cost one extra pass, not one per event.
func (r *Runner) Kick() {
	r.mKicks.Inc()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

func (r *Runner) loop(stop chan struct{}) {
	defer r.wg.Done()
	var tick <-chan time.Time
	if r.interval > 0 {
		t := time.NewTicker(r.interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-stop:
			return
		case <-tick:
		case <-r.kick:
		}
		if r.pass(stop) {
			select {
			case <-stop:
				return
			case <-time.After(retryAfter):
				r.Kick()
			}
		}
	}
}

// Cycle runs fn as one cycle of the task — the in-progress gauge is up
// while it runs, then the cycle counter and duration histogram move —
// and returns how long it took.
func (r *Runner) Cycle(fn func()) time.Duration {
	start := time.Now()
	r.gInProgress.Set(1)
	defer r.gInProgress.Set(0)
	fn()
	d := time.Since(start)
	r.mCycles.Inc()
	r.hCycleSeconds.Record(d)
	return d
}

// Walk calls do for each key in order, each on a goroutine of its own,
// at most MaxConcurrent at a time, and returns the number of keys it
// started once every call has returned. Keys are paced on a fixed-rate
// schedule, not a fixed sleep: each is due no earlier than 1/Rate after
// the one before, however long that one's call took. A closed cancel
// stops the walk between keys; fewer started than len(keys) means it
// was cut short.
func (r *Runner) Walk(keys []string, cancel <-chan struct{}, do func(key string)) int {
	var wg sync.WaitGroup
	sem := make(chan struct{}, r.workers)
	started := 0
	next := time.Now()
walk:
	for _, key := range keys {
		select {
		case <-cancel:
			break walk
		default:
		}
		if wait := time.Until(next); r.perKey > 0 && wait > 0 {
			select {
			case <-time.After(wait):
			case <-cancel:
				break walk
			}
		}
		next = next.Add(r.perKey)
		r.mKeysScanned.Inc()
		started++
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			do(key)
		}()
	}
	wg.Wait()
	return started
}
