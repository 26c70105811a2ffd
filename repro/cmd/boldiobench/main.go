// Command boldiobench regenerates the paper's Figure 13: TestDFSIO
// write and read throughput for Hadoop I/O running (a) directly over
// Lustre and (b) through the Boldio burst buffer with asynchronous
// replication, Era-CE-CD, or Era-SE-CD resilience.
//
// The paper's setup: 8 Hadoop nodes with 4 maps each through a
// 5-server Boldio cluster on RI-QDR (32 concurrent maps), 12 nodes
// with 4 maps each for Lustre-Direct (48 maps), aggregate data sizes
// 10-40 GB. The default here sweeps scaled sizes; -full uses the
// paper's.
package main

import (
	"flag"
	"fmt"
	"os"

	"ecstore/repro/internal/boldio"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "boldiobench:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.String("fig", "all", "figure: 13a (write) | 13b (read) | all")
	full := flag.Bool("full", false, "paper-scale data sizes (10-40 GB aggregate)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	// Aggregate dataset sizes; per-map share is size/maps.
	sizes := []int64{1 << 30, 2 << 30, 4 << 30}
	if *full {
		sizes = []int64{10 << 30, 20 << 30, 30 << 30, 40 << 30}
	}
	modes := []boldio.BBMode{
		boldio.DirectLustre, boldio.BoldioAsyncRep,
		boldio.BoldioEraCECD, boldio.BoldioEraSECD,
	}

	rows := make([]row, 0, len(sizes))
	for _, size := range sizes {
		r := row{size: size, res: map[boldio.BBMode]boldio.DFSIOResult{}}
		for _, mode := range modes {
			cfg := boldio.DFSIOConfig{Mode: mode, Seed: *seed}
			maps := int64(32)
			if mode == boldio.DirectLustre {
				maps = 48
			}
			cfg.BytesPerMap = size / maps
			res, err := boldio.RunTestDFSIO(cfg)
			if err != nil {
				return err
			}
			r.res[mode] = res
		}
		rows = append(rows, r)
	}

	if *fig == "13a" || *fig == "all" {
		fmt.Println("# Figure 13(a): TestDFSIO write throughput (MB/s)")
		printTable(rows, modes, func(r boldio.DFSIOResult) float64 { return r.WriteMBps() })
		fmt.Println()
	}
	if *fig == "13b" || *fig == "all" {
		fmt.Println("# Figure 13(b): TestDFSIO read throughput (MB/s)")
		printTable(rows, modes, func(r boldio.DFSIOResult) float64 { return r.ReadMBps() })
		fmt.Println()
	}
	fmt.Println("# Burst-buffer memory after write phase (GB) — memory-efficiency comparison")
	printTable(rows, modes, func(r boldio.DFSIOResult) float64 { return float64(r.KVUsedBytes) / (1 << 30) })
	return nil
}

// row holds one data-size sweep point across all modes.
type row struct {
	size int64
	res  map[boldio.BBMode]boldio.DFSIOResult
}

func printTable(rows []row, modes []boldio.BBMode, metric func(boldio.DFSIOResult) float64) {
	fmt.Printf("%-10s", "data")
	for _, m := range modes {
		fmt.Printf(" %18s", m)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-10s", fmt.Sprintf("%dGB", r.size>>30))
		for _, m := range modes {
			fmt.Printf(" %18.0f", metric(r.res[m]))
		}
		fmt.Println()
	}
}
