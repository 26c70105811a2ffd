package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/transport"
)

// BenchmarkECOverwrite measures what the delta-write path buys an EC
// overwrite: a 1 MB value is repeatedly rewritten with a contiguous
// edit of 64 B / 4 KB / 256 KB, with delta writes on (near cache warm,
// so every overwrite after the first finds its base) and off (a
// cache-less client: every overwrite is a full K+M re-stripe).
//
// The grid runs over a shaped link rather than the instantaneous
// in-proc pipe: delta writes trade client CPU (the delta encode costs
// as much as a full encode) for wire bytes, so on a free wire the path
// can only lose. Shaping is per connection and a re-stripe fans out to
// K+M=5 servers at once, so 24 MB/s per link models the ~120 MB/s
// aggregate of a gigabit client NIC — the deployment the paper
// targets, and what the wireB_per_op column means in practice.
//
// Reported per variant: qps, p99_us, and wireB_per_op — the chunk or
// patch payload bytes put on the wire per overwrite, from the client's
// own accounting. CI tracks the trajectory as BENCH_10.json;
// EXPERIMENTS.md records the spread.
//
// The 256 KB leg is the documented crossover: its patch (data runs
// plus M parity shards' worth of touched rows) exceeds the value/2
// profitability bound, so the delta path steps aside and both variants
// converge — by design, not by accident.
func BenchmarkECOverwrite(b *testing.B) {
	const valueSize = 1 << 20
	shape := transport.Shape{Latency: 200 * time.Microsecond, BytesPerSec: 24 << 20}
	for _, delta := range []bool{true, false} {
		for _, editSize := range []int{64, 4 << 10, 256 << 10} {
			name := fmt.Sprintf("delta=%s/edit=%s", onOff(delta), sizeLabel(editSize))
			b.Run(name, func(b *testing.B) {
				cl, err := cluster.Start(cluster.Config{N: 5, Network: transport.NewInproc(shape)})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(cl.Close)
				cfg := core.Config{
					Network: cl.Network(), Servers: cl.Addrs(),
					Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
				}
				if delta {
					cfg.CacheBytes = 64 << 20
					cfg.CacheMaxAge = time.Hour
				}
				c, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(c.Close)

				value := make([]byte, valueSize)
				rand.New(rand.NewSource(1)).Read(value)
				if err := c.Set("bench/overwrite", value); err != nil {
					b.Fatal(err)
				}
				wireBefore := c.Metrics().Snapshot().Counter("ecstore_client_ec_write_payload_bytes_total")

				latencies := make([]time.Duration, 0, b.N)
				b.ReportAllocs()
				b.SetBytes(valueSize)
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					off := (i * 131071) % (valueSize - editSize)
					for j := off; j < off+editSize; j++ {
						value[j] ^= 0xFF
					}
					t0 := time.Now()
					if err := c.Set("bench/overwrite", value); err != nil {
						b.Fatal(err)
					}
					latencies = append(latencies, time.Since(t0))
				}
				elapsed := time.Since(start)
				b.StopTimer()

				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "qps")
				sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
				b.ReportMetric(float64(latencies[len(latencies)*99/100].Microseconds()), "p99_us")
				wireAfter := c.Metrics().Snapshot().Counter("ecstore_client_ec_write_payload_bytes_total")
				b.ReportMetric(float64(wireAfter-wireBefore)/float64(b.N), "wireB_per_op")
			})
		}
	}
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

func sizeLabel(n int) string {
	if n < 1024 {
		return fmt.Sprintf("%dB", n)
	}
	return fmt.Sprintf("%dKB", n>>10)
}
