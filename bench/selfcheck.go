package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// countMetrics are the seeded counts that must repeat to three
// significant digits between two runs of one seed; if they do not,
// placement or the op stream depends on something besides the seed.
var countMetrics = []string{"core.degraded_read_share", "core.rpcs_per_op", "transport.bytes_per_op"}

// checkRow is one (workload, metric) pair of selfcheck.json.
type checkRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Bound    float64   `json:"bound,omitempty"`
	A        []float64 `json:"a"`
	B        []float64 `json:"b"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	// Shift is |median_b - median_a| / median_a; SpreadA and SpreadB are
	// (Q3-Q1)/median of each set, Python's statistics.quantiles(n=4).
	Shift   float64 `json:"shift"`
	SpreadA float64 `json:"iqr_spread_a"`
	SpreadB float64 `json:"iqr_spread_b"`
	OK      bool    `json:"ok"`
}

// selfcheck runs the benchmark as two sets, A and B, of the same code —
// n runs per set and workload, run i of both sets on seed+i, A and B
// alternating — and fails if the sets disagree by more than the
// benchmark allows a change to: if an end-to-end median moves by more
// than the metric's bound, if a set's own spread exceeds the bound (with
// four runs or more; setup_s is exempt, as in the acceptance procedure),
// or if a seeded count differs between two traced runs of one seed.
func selfcheck(o options) error {
	chosen, err := chooseSpecs(o.workload)
	if err != nil {
		return err
	}
	// values[set][workload][metric]
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, sp := range chosen {
			values[set][sp.name] = map[string][]float64{}
		}
	}
	runOne := func(set int, sp *spec, seed int64, trace int, names []string) error {
		one := o
		one.workload, one.seed, one.trace = sp.name, seed, trace
		inv, err := runInvocation(one, io.Discard)
		if err != nil {
			return err
		}
		for _, name := range names {
			m := values[set][sp.name]
			m[name] = append(m[name], inv.Workloads[0].Medians[name])
		}
		fmt.Fprintf(os.Stderr, "selfcheck: set %c %s seed %d trace %d done\n", 'A'+set, sp.name, seed, trace)
		return nil
	}
	var e2e []string
	for _, d := range endToEnd {
		e2e = append(e2e, d.Name)
	}
	for i := 0; i < o.sets; i++ {
		for _, sp := range chosen {
			for set := 0; set < 2; set++ {
				if err := runOne(set, sp, o.seed+int64(i), 0, e2e); err != nil {
					return err
				}
			}
		}
	}
	for _, sp := range chosen {
		for set := 0; set < 2; set++ {
			if err := runOne(set, sp, o.seed, 1, countMetrics); err != nil {
				return err
			}
		}
	}

	var rows []checkRow
	bad := 0
	for _, sp := range chosen {
		for _, d := range endToEnd {
			a, b := values[0][sp.name][d.Name], values[1][sp.name][d.Name]
			row := checkRow{Workload: sp.name, Metric: d.Name, Bound: d.Bound, A: a, B: b,
				MedianA: median(a), MedianB: median(b), SpreadA: iqrSpread(a), SpreadB: iqrSpread(b)}
			row.Shift = math.Abs(row.MedianB-row.MedianA) / row.MedianA
			row.OK = row.Shift <= d.Bound
			if len(a) >= 4 && d.Name != "setup_s" {
				row.OK = row.OK && row.SpreadA <= d.Bound && row.SpreadB <= d.Bound
			}
			rows = append(rows, row)
		}
		for _, name := range countMetrics {
			a, b := values[0][sp.name][name], values[1][sp.name][name]
			row := checkRow{Workload: sp.name, Metric: name, A: a, B: b, MedianA: a[0], MedianB: b[0]}
			row.Shift = ratio(math.Abs(b[0]-a[0]), math.Abs(a[0]))
			row.OK = sameTo3(a[0], b[0])
			rows = append(rows, row)
		}
	}
	for _, row := range rows {
		verdict := "ok"
		if !row.OK {
			verdict = "FAIL"
			bad++
		}
		fmt.Printf("%-13s %-28s A=%-12.5g B=%-12.5g shift=%.4f spreadA=%.4f spreadB=%.4f bound=%.2f %s\n",
			row.Workload, row.Metric, row.MedianA, row.MedianB, row.Shift, row.SpreadA, row.SpreadB, row.Bound, verdict)
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "selfcheck.json"), data, 0o644); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d of %d (workload, metric) pairs disagree between two sets of the same code", bad, len(rows))
	}
	return nil
}
