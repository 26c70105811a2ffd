// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section VI), plus the ablations called out in DESIGN.md.
// Simulation-backed benchmarks are deterministic; codec benchmarks
// measure real CPU work.
//
//	go -C repro test -bench=. -benchmem .
//	go -C repro test -bench=Fig8 .    # just the micro-benchmark figures
package repro

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/erasure"
	"ecstore/internal/ycsb"
	"ecstore/repro/internal/boldio"
	"ecstore/repro/internal/codes"
	"ecstore/repro/internal/simkv"
	"ecstore/repro/internal/simnet"
)

// ---------------------------------------------------------------------
// Figure 4: Jerasure-style codec study (real CPU measurements).
// ---------------------------------------------------------------------

func fig4Codes(b *testing.B) []codes.Code {
	b.Helper()
	all, err := codes.All(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	return all
}

var fig4Sizes = []int{1 << 10, 16 << 10, 256 << 10, 1 << 20}

// BenchmarkFig4Encode regenerates Figure 4(a): encode time per code
// and size.
func BenchmarkFig4Encode(b *testing.B) {
	for _, code := range fig4Codes(b) {
		for _, size := range fig4Sizes {
			b.Run(fmt.Sprintf("%s/%dKB", code.Name(), size>>10), func(b *testing.B) {
				value := make([]byte, size)
				rand.New(rand.NewSource(1)).Read(value)
				shards := erasure.Split(value, code.K(), code.M())
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := code.Encode(shards); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig4Decode regenerates Figure 4(b): decode time with one
// and two erased chunks.
func BenchmarkFig4Decode(b *testing.B) {
	for _, code := range fig4Codes(b) {
		for _, failures := range []int{1, 2} {
			for _, size := range fig4Sizes {
				b.Run(fmt.Sprintf("%s/fail%d/%dKB", code.Name(), failures, size>>10), func(b *testing.B) {
					value := make([]byte, size)
					rand.New(rand.NewSource(1)).Read(value)
					shards := erasure.Split(value, code.K(), code.M())
					if err := code.Encode(shards); err != nil {
						b.Fatal(err)
					}
					b.SetBytes(int64(size))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						work := make([][]byte, len(shards))
						for j, s := range shards {
							work[j] = append([]byte(nil), s...)
						}
						for f := 0; f < failures; f++ {
							work[f] = nil
						}
						b.StartTimer()
						if err := code.Reconstruct(work); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// ---------------------------------------------------------------------
// Figures 8 and 9: micro-benchmark latencies on the simulated RI-QDR
// cluster. The reported metric is the effective per-op latency in µs.
// ---------------------------------------------------------------------

func qdrConfig(mode simkv.Mode) simkv.Config {
	return simkv.Config{Profile: simnet.ProfileQDR, Mode: mode, F: 3, K: 3, M: 2, Seed: 1}
}

var microModes = []simkv.Mode{
	simkv.ModeSyncRep, simkv.ModeAsyncRep,
	simkv.ModeEraCECD, simkv.ModeEraSESD, simkv.ModeEraSECD,
}

// BenchmarkFig8aSet regenerates Figure 8(a).
func BenchmarkFig8aSet(b *testing.B) {
	for _, mode := range microModes {
		for _, size := range []int{16 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/%dKB", mode, size>>10), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := simkv.RunMicroSet(qdrConfig(mode), size, 200)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Mean())/1e3, "µs/kvop")
				}
			})
		}
	}
}

// BenchmarkFig8bGet regenerates Figure 8(b) (no failures).
func BenchmarkFig8bGet(b *testing.B) {
	benchmarkGet(b, 0)
}

// BenchmarkFig8cGetDegraded regenerates Figure 8(c) (two failures).
func BenchmarkFig8cGetDegraded(b *testing.B) {
	benchmarkGet(b, 2)
}

func benchmarkGet(b *testing.B, failures int) {
	for _, mode := range microModes {
		for _, size := range []int{16 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/%dKB", mode, size>>10), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := simkv.RunMicroGet(qdrConfig(mode), size, 200, failures)
					if err != nil {
						b.Fatal(err)
					}
					if res.Failed != 0 {
						b.Fatalf("%d failed ops", res.Failed)
					}
					b.ReportMetric(float64(res.Mean())/1e3, "µs/kvop")
				}
			})
		}
	}
}

// BenchmarkFig9Breakdown regenerates Figure 9: the request /
// wait-response / encode-decode phase split for 1 MB operations.
func BenchmarkFig9Breakdown(b *testing.B) {
	run := func(b *testing.B, f func() (simkv.MicroResult, error)) {
		for i := 0; i < b.N; i++ {
			res, err := f()
			if err != nil {
				b.Fatal(err)
			}
			names, durs := res.Breakdown.Phases()
			for j, name := range names {
				b.ReportMetric(float64(durs[j])/1e3, "µs/"+name)
			}
		}
	}
	for _, mode := range microModes {
		b.Run("set/"+mode.String(), func(b *testing.B) {
			run(b, func() (simkv.MicroResult, error) {
				return simkv.RunMicroSet(qdrConfig(mode), 1<<20, 200)
			})
		})
		b.Run("get-degraded/"+mode.String(), func(b *testing.B) {
			run(b, func() (simkv.MicroResult, error) {
				return simkv.RunMicroGet(qdrConfig(mode), 1<<20, 200, 2)
			})
		})
	}
}

// ---------------------------------------------------------------------
// Figure 10: memory efficiency and data loss (scaled: 5 x 256 MB
// servers, 1 MB pairs).
// ---------------------------------------------------------------------

// BenchmarkFig10Memory regenerates Figure 10.
func BenchmarkFig10Memory(b *testing.B) {
	for _, mode := range []simkv.Mode{simkv.ModeAsyncRep, simkv.ModeEraCECD} {
		for _, clients := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/clients%d", mode, clients), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := qdrConfig(mode)
					cfg.ServerMemBytes = 256 << 20
					res, err := simkv.RunMemory(cfg, clients, 20, 1<<20)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.UsedPct(), "%mem")
					b.ReportMetric(float64(res.EvictedBytes)/(1<<20), "MB-lost")
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Figures 11 and 12: YCSB latency and throughput (scaled population).
// ---------------------------------------------------------------------

func ycsbRun(b *testing.B, mode simkv.Mode, profile simnet.Profile, w ycsb.Workload, size int) simkv.YCSBResult {
	b.Helper()
	res, err := simkv.RunYCSB(
		simkv.Config{Profile: profile, Mode: mode, F: 3, K: 3, M: 2, Seed: 1},
		simkv.YCSBConfig{
			Workload: w, ValueSize: size,
			ClientNodes: 5, ClientsPerNode: 4,
			Records: 2000, OpsPerClient: 100,
		})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func ycsbSetups() []struct {
	name    string
	mode    simkv.Mode
	profile simnet.Profile
} {
	return []struct {
		name    string
		mode    simkv.Mode
		profile simnet.Profile
	}{
		{"memc-ipoib-norep", simkv.ModeNoRep, simnet.ProfileIPoIB},
		{"memc-rdma-norep", simkv.ModeNoRep, simnet.ProfileFDR},
		{"async-rep", simkv.ModeAsyncRep, simnet.ProfileFDR},
		{"era-ce-cd", simkv.ModeEraCECD, simnet.ProfileFDR},
		{"era-se-cd", simkv.ModeEraSECD, simnet.ProfileFDR},
	}
}

// BenchmarkFig11YCSBLatency regenerates Figure 11 (SDSC-Comet; use
// ProfileEDR in ycsbbench for 11(b)).
func BenchmarkFig11YCSBLatency(b *testing.B) {
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB} {
		for _, s := range ycsbSetups() {
			b.Run(w.Name+"/"+s.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := ycsbRun(b, s.mode, s.profile, w, 32<<10)
					b.ReportMetric(float64(res.ReadLatency.Mean())/1e3, "µs-read")
					if res.WriteLatency.Count() > 0 {
						b.ReportMetric(float64(res.WriteLatency.Mean())/1e3, "µs-write")
					}
				}
			})
		}
	}
}

// BenchmarkFig12YCSBThroughput regenerates Figure 12 at the paper's
// headline 32 KB point.
func BenchmarkFig12YCSBThroughput(b *testing.B) {
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB} {
		for _, s := range ycsbSetups() {
			b.Run(w.Name+"/"+s.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := ycsbRun(b, s.mode, s.profile, w, 32<<10)
					b.ReportMetric(res.Throughput(), "kvops/s")
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Figure 13: TestDFSIO through the Boldio burst buffer.
// ---------------------------------------------------------------------

// BenchmarkFig13TestDFSIO regenerates Figure 13 (scaled: 1 GB
// aggregate).
func BenchmarkFig13TestDFSIO(b *testing.B) {
	for _, mode := range []boldio.BBMode{
		boldio.DirectLustre, boldio.BoldioAsyncRep,
		boldio.BoldioEraCECD, boldio.BoldioEraSECD,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				maps := int64(32)
				if mode == boldio.DirectLustre {
					maps = 48
				}
				res, err := boldio.RunTestDFSIO(boldio.DFSIOConfig{
					Mode: mode, BytesPerMap: (1 << 30) / maps, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.WriteMBps(), "writeMB/s")
				b.ReportMetric(res.ReadMBps(), "readMB/s")
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md section 5).
// ---------------------------------------------------------------------

// BenchmarkAblationEagerThreshold sweeps the eager/rendezvous switch,
// the mechanism behind the paper's 16 KB YCSB crossover.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, threshold := range []int{4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("threshold%dKB", threshold>>10), func(b *testing.B) {
			prof := simnet.ProfileFDR
			prof.EagerThreshold = threshold
			for i := 0; i < b.N; i++ {
				res := ycsbRun(b, simkv.ModeEraCECD, prof, ycsb.WorkloadA, 32<<10)
				b.ReportMetric(res.Throughput(), "kvops/s")
			}
		})
	}
}

// BenchmarkAblationWindow sweeps the ARPE window: window 1 is the
// blocking API; larger windows buy computation/communication overlap.
func BenchmarkAblationWindow(b *testing.B) {
	for _, window := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("window%d", window), func(b *testing.B) {
			cfg := qdrConfig(simkv.ModeEraCECD)
			cfg.Window = window
			for i := 0; i < b.N; i++ {
				res, err := simkv.RunMicroSet(cfg, 1<<20, 200)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Mean())/1e3, "µs/kvop")
			}
		})
	}
}

// BenchmarkAblationKM sweeps the RS(K,M) geometry: latency vs the
// storage overhead (K+M)/K.
func BenchmarkAblationKM(b *testing.B) {
	for _, km := range [][2]int{{3, 2}, {4, 2}, {6, 3}} {
		k, m := km[0], km[1]
		b.Run(fmt.Sprintf("RS(%d,%d)", k, m), func(b *testing.B) {
			cfg := qdrConfig(simkv.ModeEraCECD)
			cfg.Servers = k + m
			cfg.K, cfg.M = k, m
			for i := 0; i < b.N; i++ {
				res, err := simkv.RunMicroSet(cfg, 1<<20, 200)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Mean())/1e3, "µs/kvop")
				b.ReportMetric(float64(k+m)/float64(k), "x-storage")
			}
		})
	}
}

// BenchmarkAblationPlacement compares the paper's ring-successor chunk
// placement against random placement under Zipfian skew.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, random := range []bool{false, true} {
		name := "ring-successors"
		if random {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := simkv.Config{Profile: simnet.ProfileFDR, Mode: simkv.ModeEraCECD,
					K: 3, M: 2, Seed: 1, RandomPlacement: random}
				res, err := simkv.RunYCSB(cfg, simkv.YCSBConfig{
					Workload: ycsb.WorkloadA, ValueSize: 32 << 10,
					ClientNodes: 5, ClientsPerNode: 4,
					Records: 2000, OpsPerClient: 100,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Throughput(), "kvops/s")
			}
		})
	}
}

// BenchmarkAblationHybrid compares the future-work hybrid policy with
// pure replication and pure erasure coding on a mixed-size workload:
// the hybrid should track replication's latency for small values while
// keeping most of EC's memory savings.
func BenchmarkAblationHybrid(b *testing.B) {
	for _, mode := range []simkv.Mode{simkv.ModeAsyncRep, simkv.ModeEraCECD, simkv.ModeHybrid} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := qdrConfig(mode)
				cfg.ServerMemBytes = 1 << 30
				// Mixed sizes: many small session-style values, fewer
				// large blobs (written as separate runs per size).
				small, err := simkv.RunMemory(cfg, 4, 50, 4<<10)
				if err != nil {
					b.Fatal(err)
				}
				cfg2 := cfg
				cfg2.Seed++
				large, err := simkv.RunMemory(cfg2, 4, 20, 256<<10)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(small.UsedBytes+large.UsedBytes)/(1<<20), "MB-used")
			}
		})
	}
}

// BenchmarkAblationCEvsSE contrasts client-side and server-side encode
// as client concurrency grows: SE wins on an idle cluster, CE wins
// when many clients would funnel encodes into the servers.
func BenchmarkAblationCEvsSE(b *testing.B) {
	for _, mode := range []simkv.Mode{simkv.ModeEraCECD, simkv.ModeEraSECD} {
		for _, clientsPerNode := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/clients%d", mode, 5*clientsPerNode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := simkv.RunYCSB(
						simkv.Config{Profile: simnet.ProfileFDR, Mode: mode, K: 3, M: 2, Seed: 1},
						simkv.YCSBConfig{
							Workload: ycsb.WorkloadA, ValueSize: 64 << 10,
							ClientNodes: 5, ClientsPerNode: clientsPerNode,
							Records: 1000, OpsPerClient: 100,
						})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.Throughput(), "kvops/s")
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Real-stack benchmark: the runnable store over the in-process
// transport (not simulated time — actual Go execution).
// ---------------------------------------------------------------------

// BenchmarkRealStack measures real Set+Get round trips through the
// full client/server/wire stack per resilience mode.
func BenchmarkRealStack(b *testing.B) {
	modes := map[string]core.Config{
		"none":      {Resilience: core.ResilienceNone},
		"async-rep": {Resilience: core.ResilienceAsyncRep, Replicas: 3},
		"era-ce-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2},
		"era-se-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeSECD, K: 3, M: 2},
	}
	for name, cfg := range modes {
		for _, size := range []int{4 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/%dKB", name, size>>10), func(b *testing.B) {
				cl, err := cluster.Start(cluster.Config{N: 5})
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				cfg := cfg
				cfg.Network = cl.Network()
				cfg.Servers = cl.Addrs()
				client, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer client.Close()
				value := make([]byte, size)
				rand.New(rand.NewSource(1)).Read(value)
				b.SetBytes(int64(2 * size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					key := fmt.Sprintf("bench-%d", i%128)
					if err := client.Set(key, value); err != nil {
						b.Fatal(err)
					}
					if _, err := client.Get(key); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRecovery measures the repair path the paper defers to
// future work: after a server crash+restart, re-protect every stripe
// (reconstruct lost chunks and rewrite them). Compares erasure repair
// (reads K chunks, writes the lost ones) with replication repair
// (reads one copy, rewrites whole values).
func BenchmarkRecovery(b *testing.B) {
	modes := map[string]core.Config{
		"era-ce-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2},
		"async-rep": {Resilience: core.ResilienceAsyncRep, Replicas: 3},
	}
	const keys = 64
	for name, cfg := range modes {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl, err := cluster.Start(cluster.Config{N: 5})
				if err != nil {
					b.Fatal(err)
				}
				cfg := cfg
				cfg.Network = cl.Network()
				cfg.Servers = cl.Addrs()
				client, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				value := make([]byte, 16<<10)
				for k := 0; k < keys; k++ {
					if err := client.Set(fmt.Sprintf("r-%d", k), value); err != nil {
						b.Fatal(err)
					}
				}
				cl.Kill(0)
				if err := cl.Restart(0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rewritten := 0
				for k := 0; k < keys; k++ {
					report, err := client.Repair(fmt.Sprintf("r-%d", k))
					if err != nil {
						b.Fatal(err)
					}
					rewritten += report.Rewritten
				}
				b.StopTimer()
				b.ReportMetric(float64(rewritten)/float64(keys), "chunks-rewritten/key")
				client.Close()
				cl.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkModelVsSim cross-checks the analytical model against the
// simulator: Equation 7's ideal Set bound must hold within the window
// regime (reported as the sim/model ratio).
func BenchmarkModelVsSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := simkv.RunMicroSet(qdrConfig(simkv.ModeEraCECD), 1<<20, 200)
		if err != nil {
			b.Fatal(err)
		}
		// Equation 7: T_encode + L + D/(B·K), with the encode fully
		// overlapped across the window the effective floor is D·(N/K)/B
		// at the client NIC.
		ideal := time.Duration(float64(1<<20) * 5 / 3 / simnet.ProfileQDR.BytesPerSec * 1e9)
		b.ReportMetric(float64(res.Mean())/float64(ideal), "x-of-ideal")
	}
}
