// Command ycsbbench regenerates the paper's YCSB figures on the
// simulated clusters:
//
//	-fig 11a  read/write latency, workloads A and B, SDSC-Comet (FDR)
//	-fig 11b  read/write latency, workloads A and B, RI2-EDR
//	-fig 12a  throughput, workload A (50:50), SDSC-Comet
//	-fig 12b  throughput, workload B (95:5), SDSC-Comet
//	-fig 12c  aggregated throughput (A and B at 16/32 KB), RI2-EDR
//	-fig all  everything
//
// Configurations: Memc-IPoIB-NoRep, Memc-RDMA-NoRep, Async-Rep=3,
// Era-CE-CD, Era-SE-CD, with RS(3,2) on 5 servers and a scrambled
// Zipfian key distribution, as in Section VI-C.
//
// The default scale is reduced (30 clients, 25 K records, 250 ops per
// client) so a full sweep takes seconds; pass -full for the paper's
// 150 clients / 250 K records / 2.5 K ops per client.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ecstore/internal/ycsb"
	"ecstore/repro/internal/simkv"
	"ecstore/repro/internal/simnet"
)

type setup struct {
	name    string
	mode    simkv.Mode
	profile simnet.Profile
}

func setups(fabric simnet.Profile) []setup {
	return []setup{
		{"memc-ipoib-norep", simkv.ModeNoRep, simnet.ProfileIPoIB},
		{"memc-rdma-norep", simkv.ModeNoRep, fabric},
		{"async-rep=3", simkv.ModeAsyncRep, fabric},
		{"era-ce-cd", simkv.ModeEraCECD, fabric},
		{"era-se-cd", simkv.ModeEraSECD, fabric},
	}
}

var valueSizes = []int{1 << 10, 4 << 10, 16 << 10, 32 << 10}

type scale struct {
	clientNodes, clientsPerNode, records, opsPerClient int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ycsbbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.String("fig", "all", "figure: 11a|11b|12a|12b|12c|all")
	full := flag.Bool("full", false, "run at the paper's full scale (150 clients, 250K records)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	sc := scale{clientNodes: 10, clientsPerNode: 3, records: 25_000, opsPerClient: 250}
	if *full {
		sc = scale{clientNodes: 10, clientsPerNode: 15, records: 250_000, opsPerClient: 2500}
	}

	figs := map[string]func(scale, int64) error{
		"11a": func(s scale, seed int64) error { return fig11(s, seed, simnet.ProfileFDR) },
		"11b": func(s scale, seed int64) error { return fig11(s, seed, simnet.ProfileEDR) },
		"12a": func(s scale, seed int64) error { return fig12(s, seed, simnet.ProfileFDR, ycsb.WorkloadA) },
		"12b": func(s scale, seed int64) error { return fig12(s, seed, simnet.ProfileFDR, ycsb.WorkloadB) },
		"12c": fig12c,
	}
	if *fig == "all" {
		for _, name := range []string{"11a", "11b", "12a", "12b", "12c"} {
			if err := figs[name](sc, *seed); err != nil {
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
	return fn(sc, *seed)
}

func runOne(s setup, sc scale, seed int64, w ycsb.Workload, valueSize int) (simkv.YCSBResult, error) {
	cfg := simkv.Config{
		Profile: s.profile,
		Servers: 5,
		Mode:    s.mode,
		F:       3, K: 3, M: 2,
		Seed: seed,
	}
	return simkv.RunYCSB(cfg, simkv.YCSBConfig{
		Workload:       w,
		ValueSize:      valueSize,
		ClientNodes:    sc.clientNodes,
		ClientsPerNode: sc.clientsPerNode,
		Records:        sc.records,
		OpsPerClient:   sc.opsPerClient,
	})
}

func fig11(sc scale, seed int64, fabric simnet.Profile) error {
	fmt.Printf("# Figure 11 (%s): YCSB average latencies, %d clients, Zipfian\n",
		fabric.Name, sc.clientNodes*sc.clientsPerNode)
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB} {
		fmt.Printf("## %s (read:write %.0f:%.0f)\n", w.Name,
			w.ReadProportion*100, (1-w.ReadProportion)*100)
		fmt.Printf("%-8s %-18s %14s %14s\n", "size", "config", "read-avg", "write-avg")
		for _, size := range valueSizes {
			for _, s := range setups(fabric) {
				res, err := runOne(s, sc, seed, w, size)
				if err != nil {
					return err
				}
				fmt.Printf("%-8s %-18s %14v %14v\n",
					sizeName(size), s.name,
					res.ReadLatency.Mean().Round(100*time.Nanosecond),
					res.WriteLatency.Mean().Round(100*time.Nanosecond))
			}
		}
	}
	return nil
}

func fig12(sc scale, seed int64, fabric simnet.Profile, w ycsb.Workload) error {
	fmt.Printf("# Figure 12 (%s, %s): YCSB throughput, %d clients\n",
		fabric.Name, w.Name, sc.clientNodes*sc.clientsPerNode)
	fmt.Printf("%-8s %-18s %14s\n", "size", "config", "ops/sec")
	for _, size := range valueSizes {
		for _, s := range setups(fabric) {
			res, err := runOne(s, sc, seed, w, size)
			if err != nil {
				return err
			}
			fmt.Printf("%-8s %-18s %14.0f\n", sizeName(size), s.name, res.Throughput())
		}
	}
	return nil
}

func fig12c(sc scale, seed int64) error {
	fmt.Printf("# Figure 12(c) (RI2-EDR): aggregated throughput at 16/32 KB\n")
	fmt.Printf("%-12s %-8s %-18s %14s\n", "workload", "size", "config", "ops/sec")
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB} {
		for _, size := range []int{16 << 10, 32 << 10} {
			for _, s := range setups(simnet.ProfileEDR) {
				res, err := runOne(s, sc, seed, w, size)
				if err != nil {
					return err
				}
				fmt.Printf("%-12s %-8s %-18s %14.0f\n", w.Name, sizeName(size), s.name, res.Throughput())
			}
		}
	}
	return nil
}

func sizeName(n int) string {
	if n >= 1<<10 {
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
