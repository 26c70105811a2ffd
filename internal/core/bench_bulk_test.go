package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ecstore/internal/core"
)

// Bulk-path benchmarks: MGet/MSet through real servers over the
// in-process transport, batched (one frame per target server) vs the
// per-key pipelined baseline, which the benchmark writes itself: N
// IGet/ISet, then wait. Reported metrics: qps counts LOGICAL keys per
// second, frames_per_op the request frames one bulk call costs (0 on
// the perkey rows: single-key ops do not feed the bulk series) — the
// number the batching exists to shrink.

var bulkBenchSizes = []int{16, 64, 256} // keys per bulk call

// bulkBenchVariants pairs the two row names with their MGet and MSet.
func bulkBenchVariants() []struct {
	name string
	mget func(c *core.Client, keys []string) (int, error)
	mset func(c *core.Client, pairs map[string][]byte) error
} {
	return []struct {
		name string
		mget func(c *core.Client, keys []string) (int, error)
		mset func(c *core.Client, pairs map[string][]byte) error
	}{
		{"batched",
			func(c *core.Client, keys []string) (int, error) {
				got, err := c.MGet(keys)
				return len(got), err
			},
			(*core.Client).MSet},
		{"perkey",
			func(c *core.Client, keys []string) (int, error) {
				futures := make([]*core.Future, len(keys))
				for i, key := range keys {
					futures[i] = c.IGet(key)
				}
				return len(keys), core.WaitAll(futures...)
			},
			func(c *core.Client, pairs map[string][]byte) error {
				futures := make([]*core.Future, 0, len(pairs))
				for key, value := range pairs {
					futures = append(futures, c.ISet(key, value))
				}
				return core.WaitAll(futures...)
			}},
	}
}

func benchBulkPairs(n int) (map[string][]byte, []string) {
	pairs := make(map[string][]byte, n)
	keys := make([]string, 0, n)
	value := bytes.Repeat([]byte{0xA5}, 1024)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("bulk/%03d", i)
		pairs[key] = value
		keys = append(keys, key)
	}
	return pairs, keys
}

func reportFramesPerOp(b *testing.B, c *core.Client, before int64) {
	b.Helper()
	frames := c.Metrics().Snapshot().Counter("ecstore_client_bulk_frames_total") - before
	if b.N > 0 {
		b.ReportMetric(float64(frames)/float64(b.N), "frames_per_op")
	}
}

func BenchmarkBulkMGet(b *testing.B) {
	for _, variant := range bulkBenchVariants() {
		for _, n := range bulkBenchSizes {
			b.Run(fmt.Sprintf("%s/%dkeys", variant.name, n), func(b *testing.B) {
				c := benchClient(b, core.Config{Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2})
				pairs, keys := benchBulkPairs(n)
				if err := c.MSet(pairs); err != nil {
					b.Fatal(err)
				}
				before := c.Metrics().Snapshot().Counter("ecstore_client_bulk_frames_total")
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					got, err := variant.mget(c, keys)
					if err != nil {
						b.Fatal(err)
					}
					if got != n {
						b.Fatalf("got %d of %d keys", got, n)
					}
				}
				elapsed := time.Since(start)
				b.StopTimer()
				b.ReportMetric(float64(b.N*n)/elapsed.Seconds(), "qps")
				reportFramesPerOp(b, c, before)
			})
		}
	}
}

func BenchmarkBulkMSet(b *testing.B) {
	for _, variant := range bulkBenchVariants() {
		for _, n := range bulkBenchSizes {
			b.Run(fmt.Sprintf("%s/%dkeys", variant.name, n), func(b *testing.B) {
				c := benchClient(b, core.Config{Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2})
				pairs, _ := benchBulkPairs(n)
				before := c.Metrics().Snapshot().Counter("ecstore_client_bulk_frames_total")
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if err := variant.mset(c, pairs); err != nil {
						b.Fatal(err)
					}
				}
				elapsed := time.Since(start)
				b.StopTimer()
				b.ReportMetric(float64(b.N*n)/elapsed.Seconds(), "qps")
				reportFramesPerOp(b, c, before)
			})
		}
	}
}
