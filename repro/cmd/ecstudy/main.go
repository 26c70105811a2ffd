// Command ecstudy regenerates the paper's Figure 4: the Jerasure-style
// codec study comparing Reed-Solomon with Vandermonde matrices
// (RS_Van), Cauchy Reed-Solomon (CRS) and RAID-6 Liberation-style
// codes (R6-Lib) on key-value pair sizes from 1 KB to 1 MB. Unlike the
// cluster experiments, these are real CPU measurements of the codecs
// in internal/erasure and repro/internal/codes.
//
// With -calibrate it also fits and prints the affine T_encode/T_decode
// cost model used by the simulator (see repro/internal/calib).
//
// Usage:
//
//	ecstudy [-k 3] [-m 2] [-reps 21] [-calibrate]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"ecstore/internal/erasure"
	"ecstore/repro/internal/calib"
	"ecstore/repro/internal/codes"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ecstudy:", err)
		os.Exit(1)
	}
}

var sizes = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20}

func run() error {
	k := flag.Int("k", 3, "data chunks K")
	m := flag.Int("m", 2, "parity chunks M")
	reps := flag.Int("reps", 21, "repetitions per measurement (median reported)")
	calibrate := flag.Bool("calibrate", false, "also fit and print the simulator cost model")
	flag.Parse()

	all, err := codes.All(*k, *m)
	if err != nil {
		return err
	}

	fmt.Printf("# Figure 4(a): encode time, RS(%d,%d), sizes 1KB-1MB (medians of %d reps)\n", *k, *m, *reps)
	header(all)
	for _, size := range sizes {
		fmt.Printf("%-8s", sizeName(size))
		for _, code := range all {
			fmt.Printf(" %12v", measureEncode(code, size, *reps))
		}
		fmt.Println()
	}

	for _, failures := range []int{1, 2} {
		if failures > *m {
			continue
		}
		fmt.Printf("\n# Figure 4(b): decode time with %d node failure(s)\n", failures)
		header(all)
		for _, size := range sizes {
			fmt.Printf("%-8s", sizeName(size))
			for _, code := range all {
				fmt.Printf(" %12v", measureDecode(code, size, failures, *reps))
			}
			fmt.Println()
		}
	}

	if *calibrate {
		model, err := calib.Measure(*k, *m)
		if err != nil {
			return err
		}
		fmt.Printf("\n# Simulator cost model (calib.Model) fit on this host:\n")
		fmt.Printf("encode:  fixed=%v perByte=%.3f ns/B\n", model.Encode.Fixed, model.Encode.PerByte)
		fmt.Printf("decode1: fixed=%v perByte=%.3f ns/B\n", model.Decode1.Fixed, model.Decode1.PerByte)
		fmt.Printf("decode2: fixed=%v perByte=%.3f ns/B\n", model.Decode2.Fixed, model.Decode2.PerByte)
	}
	return nil
}

func header(all []codes.Code) {
	fmt.Printf("%-8s", "size")
	for _, code := range all {
		fmt.Printf(" %12s", code.Name())
	}
	fmt.Println()
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

func measureEncode(code codes.Code, size, reps int) time.Duration {
	rng := rand.New(rand.NewSource(1))
	value := make([]byte, size)
	rng.Read(value)
	times := make([]time.Duration, 0, reps)
	for r := 0; r < reps; r++ {
		shards := erasure.Split(value, code.K(), code.M())
		start := time.Now()
		if err := code.Encode(shards); err != nil {
			panic(err)
		}
		times = append(times, time.Since(start))
	}
	return median(times)
}

func measureDecode(code codes.Code, size, failures, reps int) time.Duration {
	rng := rand.New(rand.NewSource(1))
	value := make([]byte, size)
	rng.Read(value)
	shards := erasure.Split(value, code.K(), code.M())
	if err := code.Encode(shards); err != nil {
		panic(err)
	}
	times := make([]time.Duration, 0, reps)
	for r := 0; r < reps; r++ {
		work := make([][]byte, len(shards))
		for i, s := range shards {
			work[i] = append([]byte(nil), s...)
		}
		for f := 0; f < failures; f++ {
			work[f] = nil // erase data chunks: the worst case
		}
		start := time.Now()
		if err := code.Reconstruct(work); err != nil {
			panic(err)
		}
		times = append(times, time.Since(start))
	}
	return median(times)
}

func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
