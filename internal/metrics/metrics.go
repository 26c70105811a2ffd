// Package metrics is the always-on observability registry shared by
// every layer of the system: the rpc pool, the client strategies, the
// server dispatch path, and the item store all publish counters,
// gauges and latency histograms into a Registry. A Registry can be
// snapshotted (for the extended OpStats wire response and the kvcli
// stats subcommand) or rendered as Prometheus text exposition format
// (for the optional HTTP /metrics endpoint).
//
// The package is deliberately tiny — a map of atomics plus the
// log-bucketed stats.Histogram — so instrumentation can stay on even
// in the hot paths the paper benchmarks. Hot call sites resolve their
// Counter/Gauge/Histogram once at construction time and then pay one
// atomic op per event.
//
// Metric names follow Prometheus conventions
// ([a-zA-Z_:][a-zA-Z0-9_:]*), optionally with a label block embedded
// in the name, e.g.
//
//	reg.Counter(`ecstore_client_ops_total{op="set"}`).Inc()
//
// The renderer groups metrics sharing a base name under one # TYPE
// line, so embedded labels behave exactly like real label sets.
//
// A nil *Registry is valid everywhere and discards all writes, so
// components can thread an optional registry without nil checks at
// every call site.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ecstore/internal/stats"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// discard instances back every lookup on a nil Registry: writes land
// in shared dummies and are never rendered.
var (
	discardCounter   Counter
	discardGauge     Gauge
	discardHistogram = stats.NewHistogram()
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry discards all writes. Registries are
// safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*stats.Histogram
	funcs    map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*stats.Histogram),
		funcs:    make(map[string]func() int64),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &discardCounter
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &discardGauge
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the latency histogram registered under name,
// creating it on first use. Histograms record time.Duration samples
// and render as Prometheus summaries (quantiles + _sum + _count, in
// seconds).
func (r *Registry) Histogram(name string) *stats.Histogram {
	if r == nil {
		return discardHistogram
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = stats.NewHistogram()
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers a gauge whose value is computed by fn at
// snapshot/render time — used to expose counters a component already
// maintains (e.g. the store's per-shard stats) without double
// accounting. Re-registering a name replaces the function.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot is a point-in-time copy of a registry's contents. Function
// gauges are evaluated at snapshot time and folded into Gauges. It
// marshals to JSON for the extended OpStats wire response.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Histograms map[string]stats.Summary `json:"histograms,omitempty"`
}

// Snapshot captures the current values. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]stats.Summary{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*stats.Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for n, f := range r.funcs {
		funcs[n] = f
	}
	r.mu.Unlock()

	for n, c := range counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		snap.Gauges[n] = g.Value()
	}
	// Functions run outside the registry lock: they may take other
	// locks (the store's shards) and must not deadlock against a
	// concurrent metric registration.
	for n, f := range funcs {
		snap.Gauges[n] = f()
	}
	for n, h := range hists {
		snap.Histograms[n] = h.Summarize()
	}
	return snap
}

// Counter returns the snapshotted counter value (0 if absent) — a
// convenience for tests and the stats subcommand.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// String renders the snapshot as sorted human-readable lines, one
// metric per line.
func (s Snapshot) String() string {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
	}
	for n, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
	}
	for n, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s %s", n, h.String()))
	}
	sort.Strings(lines)
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n"
		}
		out += l
	}
	return out
}
