package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers a span can belong to. All spans are recorded from this
// directory's files, around the calls into each layer; spans inside the
// program are a later change (ROADMAP item 5).
const (
	// layerCall is the load generator's view of one client call. On the
	// native workloads it is the call into core; on proxy-mget it is the
	// memcached command over TCP, so its self time is memproto's.
	layerCall = iota
	// layerBackend is one memproto.Backend call, recorded by a decorator
	// around ClusterBackend: core as the proxy sees it.
	layerBackend
	// layerWrite is one Write on the cluster fabric, either direction.
	layerWrite
	// layerServer is one frame's residence in a server: from the last
	// Read before a response to the start of that response's first
	// Write, stamped on the accept side of the fabric.
	layerServer
	numLayers
)

var layerNames = [numLayers]string{"call", "backend", "write", "server"}

// span is one timed interval; times are nanoseconds since the log's
// base.
type span struct {
	Layer uint8 `json:"layer"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. It is off until
// the timed phase starts, so set-up and warm-up leave nothing behind.
type spanLog struct {
	on   atomic.Bool
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, 1<<20)}
}

func (l *spanLog) enabled() bool { return l != nil && l.on.Load() }

func (l *spanLog) add(layer uint8, start, end time.Time) {
	s := span{Layer: layer, Start: int64(start.Sub(l.base)), End: int64(end.Sub(l.base))}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// layerTimes is what the span tree says about one layer.
type layerTimes struct {
	Spans   int64 // spans of this layer
	TotalNs int64 // sum of their durations
	SelfNs  int64 // durations minus the part child spans cover
}

// selfTimes nests spans by time containment — with one call in flight,
// every span that lies inside a call's interval was caused by it — and
// returns per-layer totals. A span's self time is its duration minus
// the part of it that its direct children cover; children that overlap
// each other (parallel chunk fetches) are counted once. With several
// calls in flight (burst-1m) calls overlap without containing each
// other, so a child may be charged to a neighbouring call: the layer
// totals stay right, the split between call self time and children is
// approximate there.
func selfTimes(spans []span) [numLayers]layerTimes {
	var out [numLayers]layerTimes
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Start != s[j].Start {
			return s[i].Start < s[j].Start
		}
		if s[i].End != s[j].End {
			return s[i].End > s[j].End // the enclosing span first
		}
		return s[i].Layer < s[j].Layer
	})
	// open is the chain of spans containing the current position; each
	// keeps how much of itself its children have covered so far and
	// where that coverage ends, which is enough because children arrive
	// in start order.
	type frame struct {
		span
		covered, coveredTo int64
	}
	var open []frame
	closeTop := func() {
		f := open[len(open)-1]
		open = open[:len(open)-1]
		out[f.Layer].SelfNs += (f.End - f.Start) - f.covered
	}
	for _, sp := range s {
		for len(open) > 0 && open[len(open)-1].End < sp.End {
			closeTop() // sp is not inside the top span: that span is done
		}
		out[sp.Layer].Spans++
		out[sp.Layer].TotalNs += sp.End - sp.Start
		if n := len(open); n > 0 {
			p := &open[n-1]
			from := max(sp.Start, p.coveredTo)
			if sp.End > from {
				p.covered += sp.End - from
				p.coveredTo = sp.End
			}
		}
		open = append(open, frame{span: sp, coveredTo: sp.Start})
	}
	for len(open) > 0 {
		closeTop()
	}
	return out
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	LayerNames []string              `json:"layer_names"`
	Spans      int                   `json:"spans_recorded"`
	Layers     map[string]layerTimes `json:"layers"`
	// Sample is the first spans of the timed phase, enough to draw a few
	// hundred calls; the totals above cover all of them.
	Sample []span `json:"sample"`
}

const traceSampleSpans = 20000

func writeTrace(path, workload string, seed int64, spans []span, lt [numLayers]layerTimes) error {
	tf := traceFile{
		Workload:   workload,
		Seed:       seed,
		LayerNames: layerNames[:],
		Spans:      len(spans),
		Layers:     map[string]layerTimes{},
		Sample:     spans[:min(len(spans), traceSampleSpans)],
	}
	for i, name := range layerNames {
		tf.Layers[name] = lt[i]
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
