// Package stats provides the measurement primitives shared by the
// benchmark harnesses: log-bucketed latency histograms, an op/error
// meter, and the Request / Wait-Response / Encode-Decode phase
// breakdown used by the paper's Figure 9.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// subBuckets is the linear resolution inside each power-of-two bucket.
// 32 sub-buckets bound the relative quantile error at ~3%.
const subBuckets = 32

// numBuckets covers values up to 2^62 ns.
const numBuckets = 63

// Histogram is a log-bucketed histogram of time.Duration samples in the
// style of HDR histograms. The zero value is ready to use. It is safe
// for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts [numBuckets * subBuckets]uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{min: math.MaxInt64} }

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v)
	shift := exp - 5                 // log2(subBuckets)
	sub := int(v>>uint(shift)) - subBuckets
	return (exp-5+1)*subBuckets + sub
}

// bucketValue returns a representative (upper-midpoint) value for a
// bucket index, the inverse of bucketIndex up to bucket resolution.
func bucketValue(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	block := idx/subBuckets - 1
	sub := idx % subBuckets
	base := int64(subBuckets+sub) << uint(block)
	width := int64(1) << uint(block)
	return base + width/2
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[idx]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean of the recorded samples, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.count))
}

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.sum)
}

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.max)
}

// Percentile returns the p-th percentile (0 < p <= 100) with bucket
// resolution, or 0 if the histogram is empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Merge adds the contents of other into h.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	counts := other.counts
	count, sum, mn, mx := other.count, other.sum, other.min, other.max
	other.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range counts {
		h.counts[i] += c
	}
	if count > 0 {
		if h.count == 0 || mn < h.min {
			h.min = mn
		}
		if mx > h.max {
			h.max = mx
		}
	}
	h.count += count
	h.sum += sum
}

// Summary is a compact snapshot of a histogram.
type Summary struct {
	Count uint64
	Sum   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Min   time.Duration
	Max   time.Duration
}

// Summarize returns a Summary of the current contents.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// Breakdown accumulates per-phase time for the Figure 9 style
// time-wise breakdown. It is safe for concurrent use.
type Breakdown struct {
	mu     sync.Mutex
	order  []string
	phases map[string]time.Duration
	count  uint64
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{phases: make(map[string]time.Duration)}
}

// Add accumulates d into the named phase.
func (b *Breakdown) Add(phase string, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.phases[phase]; !ok {
		b.order = append(b.order, phase)
	}
	b.phases[phase] += d
}

// AddOp marks one completed operation (used to compute per-op means).
func (b *Breakdown) AddOp() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.count++
}

// Phases returns the phases in first-seen order with their mean per-op
// durations. If no ops were marked, totals are returned.
func (b *Breakdown) Phases() ([]string, []time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, len(b.order))
	copy(names, b.order)
	durs := make([]time.Duration, len(names))
	for i, n := range names {
		d := b.phases[n]
		if b.count > 0 {
			d /= time.Duration(b.count)
		}
		durs[i] = d
	}
	return names, durs
}

// String renders the breakdown on one line.
func (b *Breakdown) String() string {
	names, durs := b.Phases()
	parts := make([]string, len(names))
	for i := range names {
		parts[i] = fmt.Sprintf("%s=%v", names[i], durs[i])
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
