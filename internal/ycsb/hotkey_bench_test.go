package ycsb_test

import (
	"fmt"
	"testing"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/ycsb"
)

// BenchmarkHotKeyZipfian is the hot-key read-scaling scenario: an
// UNSCRAMBLED Zipfian request stream (θ = 0.99), so item 0 is truly the
// hottest key and lands on one home server — the worst case the near
// cache and singleflight coalescing exist for. Each client-count tier
// runs with the cache off (every read dials the cluster, the hot
// server is the bottleneck) and on (hot reads are absorbed client-side
// and concurrent misses coalesce into one RPC).
//
// Reported metrics beyond the standard ns/op:
//
//	qps          completed operations per second
//	hit_pct      near-cache hit ratio of the read stream
//	coalesce_pct fraction of cluster reads that were coalesced waiters
//
// CI runs this with -benchtime=1x as BENCH_7.json; the absolute
// numbers live in EXPERIMENTS.md.
func BenchmarkHotKeyZipfian(b *testing.B) {
	const (
		records      = 512
		valueSize    = 4 << 10
		opsPerClient = 100
	)
	for _, clients := range []int{16, 64, 256} {
		for _, cached := range []bool{false, true} {
			label := "nocache"
			if cached {
				label = "cache"
			}
			b.Run(fmt.Sprintf("clients=%d/%s", clients, label), func(b *testing.B) {
				cl, err := cluster.Start(cluster.Config{N: 5})
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()

				cfg := core.Config{
					Network:    cl.Network(),
					Servers:    cl.Addrs(),
					Resilience: core.ResilienceErasure,
					Scheme:     core.SchemeCECD,
					K:          3,
					M:          2,
					Window:     1024,
				}
				if cached {
					cfg.CacheBytes = 64 << 20
				}
				c, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()

				run := ycsb.Config{
					Workload:     ycsb.WorkloadC, // read-only: the scaling axis under test
					RecordCount:  records,
					Clients:      clients,
					OpsPerClient: opsPerClient,
					ValueSize:    valueSize,
					KeyPrefix:    "hot-",
					Seed:         42,
				}
				// Unscrambled: keep the Zipfian head at item 0 so the
				// hottest keys hash to fixed home servers instead of
				// being spread by the scramble.
				dist := ycsb.NewZipfian(records, ycsb.ZipfianConstant)
				if err := ycsb.Load(c, run); err != nil {
					b.Fatal(err)
				}

				b.ResetTimer()
				var ops, elapsed float64
				for i := 0; i < b.N; i++ {
					res := ycsb.RunWith(c, run, dist)
					if res.Errors > 0 {
						b.Fatalf("%d errored operations", res.Errors)
					}
					ops += float64(res.Ops)
					elapsed += res.Elapsed.Seconds()
				}
				b.StopTimer()

				snap := c.Metrics().Snapshot()
				hits := float64(snap.Counter("ecstore_client_nearcache_hits_total"))
				misses := float64(snap.Counter("ecstore_client_nearcache_misses_total"))
				coalesced := float64(snap.Counter("ecstore_client_coalesced_reads_total"))
				b.ReportMetric(ops/elapsed, "qps")
				if hits+misses > 0 {
					b.ReportMetric(100*hits/(hits+misses), "hit_pct")
				} else {
					b.ReportMetric(0, "hit_pct")
				}
				b.ReportMetric(100*coalesced/ops, "coalesce_pct")
			})
		}
	}
}
