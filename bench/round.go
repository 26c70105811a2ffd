package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"
)

// roundResult is what one round — one child process — reports.
type roundResult struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Round      int     `json:"round"`
	Traced     bool    `json:"traced"`
	TimedS     float64 `json:"timed_s"`
	WarmS      float64 `json:"warm_s"`
	Ops        int64   `json:"ops"`
	Attempted  int64   `json:"attempted"`
	Failed     int64   `json:"failed"`
	FirstError string  `json:"first_error,omitempty"`
	GetSamples int     `json:"get_samples"`
	SetSamples int     `json:"set_samples"`
	// CountWindow is false when the timed phase ended before the count
	// window did: the count-type metrics then cover what ran and do not
	// repeat exactly.
	CountWindow bool               `json:"count_window_complete"`
	StealPct    float64            `json:"steal_pct"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Metrics     map[string]float64 `json:"metrics"`
}

const (
	warmSalt  = 0x5741524d // op streams of the two phases are independent,
	timedSalt = 0x54494d45 // so the timed one does not depend on warm-up's length
	// warmCap bounds warm-up on a machine too slow to finish warmOps in
	// time; the round is still valid, its starting state just no longer
	// repeats exactly.
	warmCap = 4 * time.Second
)

// runRound is the child process: set-up, warm-up, GC, timed phase.
func runRound(sp *spec, seed int64, round int, timed time.Duration, traced bool, outDir string) (*roundResult, error) {
	var log *spanLog
	if traced {
		log = newSpanLog()
	}
	g := newValueGen(seed)

	setupStart := time.Now()
	st, err := startStack(sp, log)
	if err != nil {
		return nil, err
	}
	defer st.close()
	w := sp.build(sp, st, g)
	pre := &recorder{}
	if err := w.setup(pre); err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)
	load := w.loaded()

	warmStart := time.Now()
	rng := rand.New(rand.NewSource(seed ^ warmSalt))
	for warmed := pre.ops + int64(sp.warmOps); pre.ops < warmed && time.Since(warmStart) < warmCap; {
		w.run(w.next(rng), pre)
	}
	warm := time.Since(warmStart)
	runtime.GC()

	rec := &recorder{keep: true, log: log, getNs: make([]int64, 0, 1<<18), setNs: make([]int64, 0, 1<<16)}
	rng = rand.New(rand.NewSource(seed ^ timedSalt))
	steal0, total0 := stealJiffies()
	if log != nil {
		log.on.Store(true)
	}
	s0 := takeSnapshot(st, rec)
	var s1 *snapshot
	for end := s0.at.Add(timed); time.Now().Before(end); {
		if s1 == nil && rec.ops >= int64(sp.countOps) {
			s1 = takeSnapshot(st, rec)
		}
		w.run(w.next(rng), rec)
	}
	s2 := takeSnapshot(st, rec)
	if log != nil {
		log.on.Store(false)
	}
	steal1, total1 := stealJiffies()
	countWindow := s1 != nil
	if !countWindow {
		s1 = s2
	}
	w.audit(pre)

	var lt *[numLayers]layerTimes
	if log != nil {
		t := selfTimes(log.spans)
		lt = &t
		if err := writeTrace(filepath.Join(outDir, "trace-"+sp.name+".json"), sp.name, seed, log.spans, t); err != nil {
			return nil, err
		}
	}
	m := derive(st, rec, s0, s1, s2, lt)
	m["setup_s"] = setup.Seconds()
	m["stored_bytes_per_user_byte"] = float64(load.used) / float64(load.user)
	m["store.overhead_bytes_per_item"] = float64(load.used-load.ideal) / float64(load.items)
	m["peak_rss_mb"] = peakRSSMB()

	res := &roundResult{
		Workload:    sp.name,
		Seed:        seed,
		Round:       round,
		Traced:      traced,
		TimedS:      s2.at.Sub(s0.at).Seconds(),
		WarmS:       warm.Seconds(),
		Ops:         rec.ops,
		Attempted:   pre.attempted + rec.attempted,
		Failed:      pre.failed + rec.failed,
		GetSamples:  len(rec.getNs),
		SetSamples:  len(rec.setNs),
		CountWindow: countWindow,
		StealPct:    100 * ratio(float64(steal1-steal0), float64(total1-total0)),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Metrics:     m,
	}
	if e := cmp.Or(rec.firstErr, pre.firstErr); e != nil {
		res.FirstError = e.Error()
	}
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return res, nil
}
