package stats

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	wantMean := 50500 * time.Nanosecond // 5050µs over 100 samples
	if h.Mean() != wantMean {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
	if h.Min() != time.Microsecond {
		t.Fatalf("min = %v", h.Min())
	}
	if h.Max() != 100*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
}

func TestBucketIndexValueConsistent(t *testing.T) {
	f := func(raw int64) bool {
		v := raw
		if v < 0 {
			v = -v
		}
		v %= int64(time.Hour)
		idx := bucketIndex(v)
		rep := bucketValue(idx)
		// Representative value must land in the same bucket.
		return bucketIndex(rep) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPercentileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := NewHistogram()
	samples := make([]int64, 10000)
	for i := range samples {
		v := int64(rng.Intn(10_000_000)) // up to 10ms
		samples[i] = v
		h.Record(time.Duration(v))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{50, 90, 95, 99} {
		exact := samples[int(p/100*float64(len(samples)))-1]
		got := int64(h.Percentile(p))
		// Log-bucket resolution: within ~6% relative error.
		lo, hi := float64(exact)*0.94, float64(exact)*1.06
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("p%.0f = %d, exact %d (outside 6%%)", p, got, exact)
		}
	}
}

func TestPercentileBounds(t *testing.T) {
	h := NewHistogram()
	h.Record(5 * time.Millisecond)
	for _, p := range []float64{1, 50, 100} {
		if got := h.Percentile(p); got != 5*time.Millisecond {
			t.Errorf("single-sample p%v = %v", p, got)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 50; i++ {
		a.Record(time.Duration(i) * time.Millisecond)
		b.Record(time.Duration(i+50) * time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 99*time.Millisecond {
		t.Fatalf("merged max = %v", a.Max())
	}
	if a.Min() != 0 {
		t.Fatalf("merged min = %v", a.Min())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-time.Second)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatal("negative sample not clamped to zero")
	}
}

func TestSummary(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	s := h.Summarize()
	if s.Count != 1 || s.Mean != time.Millisecond {
		t.Fatalf("summary %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add("request", 2*time.Millisecond)
	b.Add("wait", 6*time.Millisecond)
	b.Add("request", 2*time.Millisecond)
	b.AddOp()
	b.AddOp()
	names, durs := b.Phases()
	if len(names) != 2 || names[0] != "request" || names[1] != "wait" {
		t.Fatalf("names = %v", names)
	}
	if durs[0] != 2*time.Millisecond { // 4ms over 2 ops
		t.Fatalf("request mean = %v", durs[0])
	}
	if durs[1] != 3*time.Millisecond {
		t.Fatalf("wait mean = %v", durs[1])
	}
	if b.String() == "" {
		t.Fatal("empty breakdown string")
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	m.Op()
	m.Op()
	m.Err()
	if m.Ops() != 2 || m.Errs() != 1 {
		t.Fatalf("ops=%d errs=%d, want 2 and 1", m.Ops(), m.Errs())
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Op()
			}
		}()
	}
	wg.Wait()
	if m.Ops() != 8000 {
		t.Fatalf("ops=%d", m.Ops())
	}
}
