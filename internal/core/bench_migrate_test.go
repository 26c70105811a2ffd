package core_test

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/scrub"
)

// BenchmarkMigrationImpact quantifies what online rebalancing costs
// foreground traffic: client Gets are timed against an idle cluster
// (steady) and against one whose view keeps draining a ring change's
// outgoing ring while the background daemon sweeps the keyspace
// (migrating). Reported
// metrics: qps and p99_us per variant — EXPERIMENTS.md records the
// spread, CI tracks the trajectory as BENCH_9.json.
func BenchmarkMigrationImpact(b *testing.B) {
	const (
		nkeys     = 128
		valueSize = 4 << 10
	)
	for _, variant := range []string{"steady", "migrating"} {
		b.Run(variant, func(b *testing.B) {
			cl, err := cluster.Start(cluster.Config{N: 5})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(cl.Close)
			c, err := core.New(core.Config{
				Network: cl.Network(), Servers: cl.Addrs(),
				Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)

			value := bytes.Repeat([]byte{0x3C}, valueSize)
			keys := make([]string, nkeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("mig-bench/%03d", i)
				if err := c.Set(keys[i], value); err != nil {
					b.Fatal(err)
				}
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			if variant == "migrating" {
				old := c.View()
				if _, err := cl.AddServer("kv-joiner"); err != nil {
					b.Fatal(err)
				}
				if _, err := c.RingAdd("kv-joiner"); err != nil {
					b.Fatal(err)
				}
				daemon, err := scrub.New(scrub.Config{Client: c, Rate: 5000})
				if err != nil {
					b.Fatal(err)
				}
				// First cycle moves the data and clears the draining ring;
				// the measured window then runs against the steady
				// probe/scan load a long budgeted rebalance exerts: every
				// cycle pushes a view draining the old ring again (chunks
				// mid-move are unreadable at the new placement, so timing
				// reads against a half-moved keyspace would measure
				// failures, not interference).
				if rep := daemon.RunCycle(nil); rep.Err != nil || rep.Failed > 0 || len(c.View().Draining) > 0 {
					b.Fatalf("priming migration cycle: %+v", rep)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						draining := c.View()
						draining.Epoch++
						draining.Draining = [][]string{old.Servers}
						if _, err := c.PushView(draining); err != nil {
							b.Error(err)
							return
						}
						daemon.RunCycle(stop)
					}
				}()
			}

			latencies := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := c.Get(keys[i%nkeys]); err != nil {
					b.Fatal(err)
				}
				latencies = append(latencies, time.Since(t0))
			}
			elapsed := time.Since(start)
			b.StopTimer()
			close(stop)
			wg.Wait()

			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "qps")
			sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
			p99 := latencies[len(latencies)*99/100]
			b.ReportMetric(float64(p99.Microseconds()), "p99_us")
		})
	}
}
