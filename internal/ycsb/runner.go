package ycsb

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ecstore/internal/stats"
)

// Workload is an operation mix. Proportions must sum to 1.
type Workload struct {
	// Name labels result rows ("workloada").
	Name string
	// ReadProportion is the fraction of Get operations.
	ReadProportion float64
	// UpdateProportion is the fraction of Set operations on existing
	// keys.
	UpdateProportion float64
}

// The YCSB core workloads the paper evaluates.
var (
	// WorkloadA is update heavy: 50% reads, 50% updates.
	WorkloadA = Workload{Name: "workloada", ReadProportion: 0.5, UpdateProportion: 0.5}
	// WorkloadB is read heavy: 95% reads, 5% updates.
	WorkloadB = Workload{Name: "workloadb", ReadProportion: 0.95, UpdateProportion: 0.05}
	// WorkloadC is read only.
	WorkloadC = Workload{Name: "workloadc", ReadProportion: 1.0}
)

// DB is the key-value interface the runner drives; core.Client
// satisfies it.
type DB interface {
	// Set stores value under key.
	Set(key string, value []byte) error
	// Get fetches the value stored under key.
	Get(key string) ([]byte, error)
}

// Config configures a benchmark run.
type Config struct {
	// Workload is the operation mix.
	Workload Workload
	// RecordCount is the number of preloaded keys (the paper loads
	// 250 K pairs).
	RecordCount int
	// Clients is the number of concurrent client goroutines (the
	// paper deploys 150).
	Clients int
	// OpsPerClient is the number of operations each client issues
	// (the paper uses 2.5 K).
	OpsPerClient int
	// ValueSize is the value payload size in bytes.
	ValueSize int
	// KeyPrefix namespaces this run's keys.
	KeyPrefix string
	// Seed makes the key sequence reproducible.
	Seed int64
}

// Result is the outcome of a run.
type Result struct {
	// ReadLatency and WriteLatency are per-op latency histograms.
	ReadLatency  *stats.Histogram
	WriteLatency *stats.Histogram
	// Elapsed is the wall time of the run phase.
	Elapsed time.Duration
	// Ops counts completed operations; Errors counts failures.
	Ops    uint64
	Errors uint64
}

// Throughput returns completed operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Key returns the YCSB-style key for record i under prefix.
func Key(prefix string, i uint64) string {
	return fmt.Sprintf("%suser%d", prefix, i)
}

// Load preloads the record space through db, using one value pattern
// per record so correctness checks can recognize records.
func Load(db DB, cfg Config) error {
	value := make([]byte, cfg.ValueSize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	for i := uint64(0); i < uint64(cfg.RecordCount); i++ {
		if err := db.Set(Key(cfg.KeyPrefix, i), value); err != nil {
			return fmt.Errorf("ycsb load record %d: %w", i, err)
		}
	}
	return nil
}

// Run executes the workload against db with cfg.Clients concurrent
// clients, keys drawn ScrambledZipfian over RecordCount, and returns
// merged results.
func Run(db DB, cfg Config) Result {
	return run(db, cfg, NewScrambledZipfian(uint64(cfg.RecordCount)))
}

// run is Run with the keys drawn from dist.
func run(db DB, cfg Config, dist Generator) Result {
	res := Result{
		ReadLatency:  stats.NewHistogram(),
		WriteLatency: stats.NewHistogram(),
	}
	var meter stats.Meter
	value := make([]byte, cfg.ValueSize)
	for i := range value {
		value[i] = byte('A' + i%26)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			for i := 0; i < cfg.OpsPerClient; i++ {
				key := Key(cfg.KeyPrefix, dist.Next(rng))
				if rng.Float64() < cfg.Workload.ReadProportion {
					opStart := time.Now()
					_, err := db.Get(key)
					res.ReadLatency.Record(time.Since(opStart))
					if err != nil {
						meter.Err()
					} else {
						meter.Op()
					}
					continue
				}
				opStart := time.Now()
				err := db.Set(key, value)
				res.WriteLatency.Record(time.Since(opStart))
				if err != nil {
					meter.Err()
				} else {
					meter.Op()
				}
			}
		}(c)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Ops = meter.Ops()
	res.Errors = meter.Errs()
	return res
}
