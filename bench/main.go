// Command bench is the repository's benchmark: four seeded workloads
// against the real stack (load generator → memproto proxy → core client
// → rpc → wire → transport → server → store/erasure) on a five-server
// in-process cluster, RS(3,2)/F=3 as in the paper. README.md says what
// each workload and metric is for and how quiet the numbers are.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash bench/run.sh                      # all workloads, end-to-end metrics
//	bash bench/run.sh -trace 1             # all workloads, per-layer metrics
//	bash bench/run.sh -workload burst-1m   # one workload
//	bash bench/run.sh -selfcheck           # is the benchmark quiet enough?
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const maxProcs = 2

type options struct {
	workload  string
	seed      int64
	seconds   int
	rounds    int
	trace     int
	outDir    string
	selfcheck bool
	sets      int
	manifest  bool
	// child and probe select what a re-executed copy of this binary
	// does: one round, or the isolated probes.
	child bool
	probe bool
	round int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four, interleaved)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of keys, values and op streams")
	flag.IntVar(&o.seconds, "seconds", 15, "timed seconds per workload, split evenly over the rounds")
	flag.IntVar(&o.rounds, "rounds", 3, "rounds per workload, each a fresh process; metrics are medians over rounds")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, report per-layer metrics; 0: report end-to-end metrics")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for result.json, trace files and selfcheck.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run sets A and B of the same code and compare them against the bounds")
	flag.IntVar(&o.sets, "n", 3, "selfcheck: runs per set and workload, each with another seed")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the metric tables define it")
	flag.BoolVar(&o.child, "child", false, "internal: run one round and print its result")
	flag.BoolVar(&o.probe, "probe", false, "internal: run the isolated probes and print their result")
	flag.IntVar(&o.round, "round", 0, "internal: round number")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.manifest:
		return printManifest(os.Stdout)
	case o.child:
		return runChild(o)
	case o.selfcheck:
		return selfcheck(o)
	}
	_, err := runInvocation(o, os.Stdout)
	return err
}

// runChild is one round or the probes, in a process of its own; the
// result goes to stdout as one JSON line.
func runChild(o options) error {
	sp := specByName(o.workload)
	if sp == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	var res any
	var err error
	if o.probe {
		res, err = runProbes(o.seed, sp.itemBytes())
	} else {
		res, err = runRound(sp, o.seed, o.round, time.Duration(o.seconds)*time.Second, o.trace == 1, o.outDir)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn re-executes this binary as a child and decodes its result.
// Client, proxy, five servers and the load generator share the child;
// the sandbox has two cores and nothing here may ask for more.
func spawn(into any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprint("GOMAXPROCS=", maxProcs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	return json.Unmarshal(bytes.TrimSpace(out), into)
}

// workloadResult is one workload's rounds and what they add up to.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Rounds    []*roundResult     `json:"rounds"`
	Probes    map[string]float64 `json:"probes,omitempty"`
	Medians   map[string]float64 `json:"medians"`
	Spread    map[string]float64 `json:"max_minus_min_over_median"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
}

// invocation is what bench/out/result.json holds.
type invocation struct {
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Rounds     int               `json:"rounds"`
	TimedS     int               `json:"timed_seconds_per_round"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []*workloadResult `json:"workloads"`
}

// runInvocation runs the chosen workloads, rounds interleaved (W1 W2 W3
// W4 W1 …) so that minute-scale drift of the host hits all workloads
// alike, prints the metrics, writes result.json, and for a single
// workload ends with the one-line JSON result.
func runInvocation(o options, out io.Writer) (*invocation, error) {
	chosen, err := chooseSpecs(o.workload)
	if err != nil {
		return nil, err
	}
	traced := o.trace == 1
	if o.rounds < 1 || (traced && o.rounds < 2) {
		return nil, errors.New("need at least one round, and two for a traced run (one stays untraced to measure the tracing overhead)")
	}
	perRound := o.seconds / o.rounds
	if perRound < 1 {
		return nil, fmt.Errorf("%d seconds over %d rounds leaves less than a second per round", o.seconds, o.rounds)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}

	inv := &invocation{Seed: o.seed, Trace: traced, Rounds: o.rounds, TimedS: perRound, GoVersion: runtime.Version(), GOMAXPROCS: maxProcs}
	for _, sp := range chosen {
		inv.Workloads = append(inv.Workloads, &workloadResult{Workload: sp.name})
	}
	for r := 0; r < o.rounds; r++ {
		for i, sp := range chosen {
			// A traced run keeps round 0 untraced: the two differ by the
			// tracing overhead.
			trace := 0
			if traced && r > 0 {
				trace = 1
			}
			res := &roundResult{}
			err := spawn(res, "-child", "-workload", sp.name, "-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(perRound), "-round", fmt.Sprint(r), "-trace", fmt.Sprint(trace), "-out", o.outDir)
			if err != nil {
				return nil, err
			}
			inv.Workloads[i].Rounds = append(inv.Workloads[i].Rounds, res)
		}
	}
	if traced {
		for i, sp := range chosen {
			if err := spawn(&inv.Workloads[i].Probes, "-child", "-probe", "-workload", sp.name, "-seed", fmt.Sprint(o.seed)); err != nil {
				return nil, err
			}
		}
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var failed int64
	for _, wr := range inv.Workloads {
		if err := wr.summarize(traced); err != nil {
			return nil, err
		}
		wr.print(out, defs)
		failed += wr.Failed
	}
	data, err := json.MarshalIndent(inv, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "result.json"), data, 0o644); err != nil {
		return nil, err
	}
	if len(inv.Workloads) == 1 {
		if err := inv.Workloads[0].printLine(out, defs); err != nil {
			return nil, err
		}
	}
	if failed > 0 {
		return inv, fmt.Errorf("%d operations failed", failed)
	}
	return inv, nil
}

// summarize reduces the rounds to one value per metric: the median over
// the rounds that measured it. End-to-end metrics come from untraced
// rounds only, span-derived ones from traced rounds only.
func (wr *workloadResult) summarize(traced bool) error {
	wr.Medians = map[string]float64{}
	wr.Spread = map[string]float64{}
	byMetric := map[string][]float64{}
	var plainOps, tracedOps []float64
	for _, r := range wr.Rounds {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		if r.Traced {
			tracedOps = append(tracedOps, r.Metrics["ops_per_s"])
		} else {
			plainOps = append(plainOps, r.Metrics["ops_per_s"])
		}
		if traced && !r.Traced {
			continue // the untraced reference round of a traced run
		}
		for name, v := range r.Metrics {
			byMetric[name] = append(byMetric[name], v)
		}
	}
	for name, vs := range byMetric {
		wr.Medians[name] = median(vs)
		wr.Spread[name] = rangeSpread(vs)
	}
	if !traced {
		return nil
	}
	for name, v := range wr.Probes {
		wr.Medians[name] = v
	}
	wr.Medians["trace.overhead_pct"] = 100 * (median(plainOps) - median(tracedOps)) / median(plainOps)
	for _, d := range perLayer {
		if _, ok := wr.Medians[d.Name]; !ok {
			return fmt.Errorf("%s: per-layer metric %s was not measured", wr.Workload, d.Name)
		}
	}
	return nil
}

// print writes the human-readable block: every metric by name with its
// unit and per-round values, then sample counts and the noise block.
func (wr *workloadResult) print(out io.Writer, defs []metricDef) {
	fmt.Fprintf(out, "== %s  attempted=%d failed=%d\n", wr.Workload, wr.Attempted, wr.Failed)
	for _, d := range defs {
		fmt.Fprintf(out, "%-34s %14.4f %-6s %-9s", d.Name, wr.Medians[d.Name], d.Unit, d.source)
		if _, perRound := wr.Spread[d.Name]; perRound {
			fmt.Fprint(out, "  rounds:")
			for _, r := range wr.Rounds {
				if v, ok := r.Metrics[d.Name]; ok {
					fmt.Fprintf(out, " %.4g", v)
				}
			}
			fmt.Fprintf(out, "  (max-min)/median=%.3f", wr.Spread[d.Name])
		}
		fmt.Fprintln(out)
	}
	for _, r := range wr.Rounds {
		fmt.Fprintf(out, "noise: round %d traced=%v steal=%.2f%% get_samples=%d set_samples=%d warm=%.2fs count_window=%v",
			r.Round, r.Traced, r.StealPct, r.GetSamples, r.SetSamples, r.WarmS, r.CountWindow)
		if r.FirstError != "" {
			fmt.Fprintf(out, " first_error=%q", r.FirstError)
		}
		fmt.Fprintln(out)
	}
}

// printLine writes the result line the benchmark contract asks for.
func (wr *workloadResult) printLine(out io.Writer, defs []metricDef) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]mv{}}
	for _, d := range defs {
		line.Metrics[d.Name] = mv{wr.Medians[d.Name], d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"` // bounds are 0 and omitted
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 15,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, sp := range specs {
		m.Workloads = append(m.Workloads, manifestWL{sp.name, sp.why})
	}
	return m
}

func printManifest(out io.Writer) error {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}
