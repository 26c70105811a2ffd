// Command kvbench regenerates the paper's micro-benchmark figures on
// the simulated RI-QDR cluster:
//
//	-fig 8a   Set latency vs value size (Sync-Rep, Async-Rep,
//	          Era-CE-CD, Era-SE-SD, Era-SE-CD)
//	-fig 8b   Get latency, no failures
//	-fig 8c   Get latency, two node failures
//	-fig 9a   Set time-wise breakdown (64 KB - 1 MB)
//	-fig 9b   Get breakdown under two failures
//	-fig 10   memory efficiency vs client count (Async-Rep vs
//	          Era-RS(3,2)), with data-loss accounting
//	-fig all  everything
//
// Latencies are effective per-op times (total time over 1K windowed
// operations, as in Section VI-B). Results are deterministic.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ecstore/repro/internal/simkv"
	"ecstore/repro/internal/simnet"
)

var fig8Sizes = []int{512, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20}
var fig9Sizes = []int{64 << 10, 256 << 10, 1 << 20}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.String("fig", "all", "figure to regenerate: 8a|8b|8c|9a|9b|10|all")
	ops := flag.Int("ops", 1000, "operations per configuration")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	figs := map[string]func(int, int64) error{
		"8a": fig8a, "8b": fig8b, "8c": fig8c,
		"9a": fig9a, "9b": fig9b, "10": fig10,
	}
	if *fig == "all" {
		for _, name := range []string{"8a", "8b", "8c", "9a", "9b", "10"} {
			if err := figs[name](*ops, *seed); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	fn, ok := figs[*fig]
	if !ok {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	return fn(*ops, *seed)
}

func baseConfig(mode simkv.Mode, seed int64) simkv.Config {
	return simkv.Config{
		Profile: simnet.ProfileQDR,
		Servers: 5,
		Mode:    mode,
		F:       3,
		K:       3, M: 2,
		Seed: seed,
	}
}

var latencyModes = []simkv.Mode{
	simkv.ModeSyncRep, simkv.ModeAsyncRep,
	simkv.ModeEraCECD, simkv.ModeEraSESD, simkv.ModeEraSECD,
}

func fig8(title string, ops int, seed int64, runOne func(simkv.Config, int) (simkv.MicroResult, error)) error {
	fmt.Printf("# %s (RI-QDR, 5 servers, 1 client, %d windowed ops; per-op latency)\n", title, ops)
	fmt.Printf("%-8s", "size")
	for _, m := range latencyModes {
		fmt.Printf(" %12s", m)
	}
	fmt.Println()
	for _, size := range fig8Sizes {
		fmt.Printf("%-8s", sizeName(size))
		for _, mode := range latencyModes {
			res, err := runOne(baseConfig(mode, seed), size)
			if err != nil {
				return err
			}
			fmt.Printf(" %12v", res.Mean().Round(100*time.Nanosecond))
		}
		fmt.Println()
	}
	return nil
}

func fig8a(ops int, seed int64) error {
	return fig8("Figure 8(a): Set latency", ops, seed,
		func(cfg simkv.Config, size int) (simkv.MicroResult, error) {
			return simkv.RunMicroSet(cfg, size, ops)
		})
}

func fig8b(ops int, seed int64) error {
	return fig8("Figure 8(b): Get latency, no failures", ops, seed,
		func(cfg simkv.Config, size int) (simkv.MicroResult, error) {
			return simkv.RunMicroGet(cfg, size, ops, 0)
		})
}

func fig8c(ops int, seed int64) error {
	return fig8("Figure 8(c): Get latency, two node failures", ops, seed,
		func(cfg simkv.Config, size int) (simkv.MicroResult, error) {
			return simkv.RunMicroGet(cfg, size, ops, 2)
		})
}

func fig9(title string, ops int, seed int64, runOne func(simkv.Config, int) (simkv.MicroResult, error)) error {
	fmt.Printf("# %s (per-op phase means; phases overlap across the window)\n", title)
	fmt.Printf("%-8s %-12s %14s %14s %14s\n", "size", "mode", "request", "wait-response", "encode-decode")
	for _, size := range fig9Sizes {
		for _, mode := range latencyModes {
			res, err := runOne(baseConfig(mode, seed), size)
			if err != nil {
				return err
			}
			phases := map[string]time.Duration{}
			names, durs := res.Breakdown.Phases()
			for i, n := range names {
				phases[n] = durs[i]
			}
			fmt.Printf("%-8s %-12s %14v %14v %14v\n",
				sizeName(size), mode,
				phases["request"].Round(100*time.Nanosecond),
				phases["wait-response"].Round(100*time.Nanosecond),
				phases["encode-decode"].Round(100*time.Nanosecond))
		}
	}
	return nil
}

func fig9a(ops int, seed int64) error {
	return fig9("Figure 9(a): Set latency breakdown", ops, seed,
		func(cfg simkv.Config, size int) (simkv.MicroResult, error) {
			return simkv.RunMicroSet(cfg, size, ops)
		})
}

func fig9b(ops int, seed int64) error {
	return fig9("Figure 9(b): Get latency breakdown, two node failures", ops, seed,
		func(cfg simkv.Config, size int) (simkv.MicroResult, error) {
			return simkv.RunMicroGet(cfg, size, ops, 2)
		})
}

func fig10(ops int, seed int64) error {
	// The paper's setup: 5 servers x 20 GB; each client writes 1K
	// pairs of 1 MB. ops is reinterpreted as pairs-per-client.
	const serverBytes = 20 << 30
	fmt.Printf("# Figure 10: memory efficiency, 5 servers x 20 GB, %d x 1 MB pairs per client\n", ops)
	fmt.Printf("%-8s %-12s %10s %14s %12s\n", "clients", "mode", "used%", "evicted(MB)", "failedSets")
	for _, clients := range []int{1, 5, 10, 20, 30, 40} {
		for _, mode := range []simkv.Mode{simkv.ModeAsyncRep, simkv.ModeEraCECD} {
			cfg := baseConfig(mode, seed)
			cfg.ServerMemBytes = serverBytes
			res, err := simkv.RunMemory(cfg, clients, ops, 1<<20)
			if err != nil {
				return err
			}
			fmt.Printf("%-8d %-12s %9.1f%% %14.0f %12d\n",
				clients, mode, res.UsedPct(),
				float64(res.EvictedBytes)/(1<<20), res.FailedSets)
		}
	}
	return nil
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
