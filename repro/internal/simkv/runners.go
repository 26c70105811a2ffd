package simkv

import (
	"fmt"
	"time"

	"ecstore/internal/stats"
	"ecstore/internal/ycsb"
	"ecstore/repro/internal/simnet"
)

// MicroResult is the outcome of a single-client latency experiment
// (the OHB micro-benchmarks behind Figures 8 and 9). As in the paper,
// the client issues 1K operations through its non-blocking window and
// the headline latency is total time over operation count.
type MicroResult struct {
	// Mode and ValueSize identify the configuration.
	Mode      Mode
	ValueSize int
	// Latency is the per-op completion-latency distribution
	// (includes window queueing).
	Latency *stats.Histogram
	// Breakdown is the per-op phase split (request / wait-response /
	// encode-decode).
	Breakdown *stats.Breakdown
	// Elapsed is the virtual time to satisfy all Ops operations.
	Elapsed time.Duration
	Ops     int
	// Failed counts unsuccessful operations.
	Failed int
}

// Mean returns the effective per-op latency, Elapsed / Ops — the "total
// time taken to satisfy these requests" metric of Section VI-B.
func (r MicroResult) Mean() time.Duration {
	if r.Ops == 0 {
		return 0
	}
	return r.Elapsed / time.Duration(r.Ops)
}

// windowFor returns the client window: Sync-Rep uses the blocking APIs
// (window 1); everything else uses the configured ARPE window.
func windowFor(cfg Config) int {
	if cfg.Mode == ModeSyncRep {
		return 1
	}
	return cfg.Window
}

// runWindowed issues ops operations through a window of in-flight
// requests, as the ARPE does, and returns the elapsed virtual time
// from first issue to last completion.
func runWindowed(sim *Sim, ops, window int, res *MicroResult, op func(p *simnet.Proc, i int) bool) {
	win := simnet.NewResource(sim.kernel, window)
	done := simnet.NewChan[int](sim.kernel, ops)
	sim.kernel.Go("micro-driver", func(p *simnet.Proc) {
		start := p.Now()
		for i := 0; i < ops; i++ {
			i := i
			win.Acquire(p)
			p.Go(fmt.Sprintf("op-%d", i), func(opP *simnet.Proc) {
				opStart := opP.Now()
				ok := op(opP, i)
				res.Latency.Record(opP.Now() - opStart)
				if !ok {
					res.Failed++
				}
				win.Release()
				done.Send(opP, i)
			})
		}
		for i := 0; i < ops; i++ {
			done.Recv(p)
		}
		res.Elapsed += p.Now() - start
	})
}

// RunMicroSet runs the Set latency micro-benchmark: one client issues
// ops writes of valueSize bytes through its non-blocking window
// (Figure 8(a), Figure 9(a)).
func RunMicroSet(cfg Config, valueSize, ops int) (MicroResult, error) {
	sim, err := New(cfg)
	if err != nil {
		return MicroResult{}, err
	}
	defer sim.kernel.Shutdown()
	sim.AddClientNode("client-0")
	cl := sim.NewClient("client-0")
	res := MicroResult{
		Mode: sim.cfg.Mode, ValueSize: valueSize, Ops: ops,
		Latency: stats.NewHistogram(), Breakdown: stats.NewBreakdown(),
	}
	cl.Breakdown = res.Breakdown
	runWindowed(sim, ops, windowFor(sim.cfg), &res, func(p *simnet.Proc, i int) bool {
		return cl.Set(p, fmt.Sprintf("key-%d", i), valueSize)
	})
	if _, err := sim.kernel.Run(0); err != nil {
		return MicroResult{}, err
	}
	return res, nil
}

// RunMicroGet runs the Get latency micro-benchmark: preload ops keys,
// kill `failures` servers, then read every key back through the window
// (Figure 8(b) with failures = 0, Figure 8(c) and 9(b) with 2).
func RunMicroGet(cfg Config, valueSize, ops, failures int) (MicroResult, error) {
	sim, err := New(cfg)
	if err != nil {
		return MicroResult{}, err
	}
	defer sim.kernel.Shutdown()
	sim.AddClientNode("client-0")
	cl := sim.NewClient("client-0")
	res := MicroResult{
		Mode: sim.cfg.Mode, ValueSize: valueSize, Ops: ops,
		Latency: stats.NewHistogram(), Breakdown: stats.NewBreakdown(),
	}
	loaded := simnet.NewChan[int](sim.kernel, 1)
	sim.kernel.Go("micro-load", func(p *simnet.Proc) {
		for i := 0; i < ops; i++ {
			if !cl.Set(p, fmt.Sprintf("key-%d", i), valueSize) {
				res.Failed++
			}
		}
		// Fail servers after the load, then measure degraded reads.
		for f := 0; f < failures; f++ {
			sim.KillServer(f)
		}
		cl.Breakdown = res.Breakdown
		loaded.Send(p, 1)
	})
	measure := simnet.NewChan[int](sim.kernel, 1)
	sim.kernel.Go("micro-gate", func(p *simnet.Proc) {
		loaded.Recv(p)
		measure.Send(p, 1)
	})
	// The windowed run starts only after the gate opens.
	win := windowFor(sim.cfg)
	sim.kernel.Go("micro-get-phase", func(p *simnet.Proc) {
		measure.Recv(p)
		runWindowed(sim, ops, win, &res, func(opP *simnet.Proc, i int) bool {
			_, ok := cl.Get(opP, fmt.Sprintf("key-%d", i))
			return ok
		})
	})
	if _, err := sim.kernel.Run(0); err != nil {
		return MicroResult{}, err
	}
	return res, nil
}

// YCSBConfig parameterizes the multi-client cloud-workload experiment
// (Figures 11 and 12). The paper's full scale is 150 clients on 10
// nodes, 250 K records, 2.5 K ops per client.
type YCSBConfig struct {
	// Workload is the read/update mix.
	Workload ycsb.Workload
	// ValueSize is the value payload in bytes.
	ValueSize int
	// ClientNodes and ClientsPerNode place the client population.
	ClientNodes    int
	ClientsPerNode int
	// Records is the preloaded key-space size.
	Records int
	// OpsPerClient is each client's operation count.
	OpsPerClient int
}

// YCSBResult is the outcome of a YCSB run.
type YCSBResult struct {
	Mode         Mode
	ValueSize    int
	ReadLatency  *stats.Histogram
	WriteLatency *stats.Histogram
	// Elapsed is the virtual duration of the run phase.
	Elapsed time.Duration
	Ops     int
	Failed  int
}

// Throughput returns operations per virtual second.
func (r YCSBResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// RunYCSB executes the workload on a simulated cluster.
func RunYCSB(cfg Config, yc YCSBConfig) (YCSBResult, error) {
	sim, err := New(cfg)
	if err != nil {
		return YCSBResult{}, err
	}
	defer sim.kernel.Shutdown()
	res := YCSBResult{
		Mode: sim.cfg.Mode, ValueSize: yc.ValueSize,
		ReadLatency:  stats.NewHistogram(),
		WriteLatency: stats.NewHistogram(),
	}
	for node := 0; node < yc.ClientNodes; node++ {
		sim.AddClientNode(fmt.Sprintf("cnode-%d", node))
	}

	// Load phase: spread the preload across one loader per node, then
	// start the measured run at a common barrier time.
	loadDone := simnet.NewChan[int](sim.kernel, yc.ClientNodes)
	perLoader := (yc.Records + yc.ClientNodes - 1) / yc.ClientNodes
	for node := 0; node < yc.ClientNodes; node++ {
		node := node
		loader := sim.NewClient(fmt.Sprintf("cnode-%d", node))
		sim.kernel.Go(fmt.Sprintf("loader-%d", node), func(p *simnet.Proc) {
			lo := node * perLoader
			hi := lo + perLoader
			if hi > yc.Records {
				hi = yc.Records
			}
			for i := lo; i < hi; i++ {
				loader.Set(p, ycsb.Key("", uint64(i)), yc.ValueSize)
			}
			loadDone.Send(p, node)
		})
	}

	var runStart, runEnd time.Duration
	clientsDone := simnet.NewChan[int](sim.kernel, yc.ClientNodes*yc.ClientsPerNode)
	sim.kernel.Go("coordinator", func(p *simnet.Proc) {
		for i := 0; i < yc.ClientNodes; i++ {
			loadDone.Recv(p)
		}
		runStart = p.Now()
		gen := ycsb.NewScrambledZipfian(uint64(yc.Records))
		id := 0
		for node := 0; node < yc.ClientNodes; node++ {
			for c := 0; c < yc.ClientsPerNode; c++ {
				id++
				cid := id
				cl := sim.NewClient(fmt.Sprintf("cnode-%d", node))
				rng := sim.kernel.Rand(fmt.Sprintf("ycsb-client-%d", cid))
				sim.kernel.Go(fmt.Sprintf("ycsb-%d", cid), func(p *simnet.Proc) {
					for i := 0; i < yc.OpsPerClient; i++ {
						key := ycsb.Key("", gen.Next(rng))
						if rng.Float64() < yc.Workload.ReadProportion {
							start := p.Now()
							_, ok := cl.Get(p, key)
							res.ReadLatency.Record(p.Now() - start)
							if !ok {
								res.Failed++
							}
						} else {
							start := p.Now()
							ok := cl.Set(p, key, yc.ValueSize)
							res.WriteLatency.Record(p.Now() - start)
							if !ok {
								res.Failed++
							}
						}
						res.Ops++
					}
					clientsDone.Send(p, cid)
				})
			}
		}
		for i := 0; i < yc.ClientNodes*yc.ClientsPerNode; i++ {
			clientsDone.Recv(p)
		}
		runEnd = p.Now()
	})
	if _, err := sim.kernel.Run(0); err != nil {
		return YCSBResult{}, err
	}
	res.Elapsed = runEnd - runStart
	return res, nil
}

// MemoryResult is the Figure 10 outcome: aggregate memory use and
// eviction-driven data loss under concurrent writers.
type MemoryResult struct {
	Mode Mode
	// Clients is the writer count.
	Clients int
	// UsedBytes and CapacityBytes are cluster-wide.
	UsedBytes, CapacityBytes int64
	// EvictedBytes is the data lost to LRU eviction.
	EvictedBytes int64
	// FailedSets counts rejected writes.
	FailedSets int
}

// UsedPct returns used memory as a percentage of capacity.
func (r MemoryResult) UsedPct() float64 {
	if r.CapacityBytes == 0 {
		return 0
	}
	return 100 * float64(r.UsedBytes) / float64(r.CapacityBytes)
}

// RunMemory runs the memory-efficiency experiment: `clients`
// concurrent writers each store pairsPerClient unique values of
// valueSize bytes (Figure 10: 1 K pairs of 1 MB each, 1-40 clients,
// 5 servers with 20 GB each).
func RunMemory(cfg Config, clients, pairsPerClient, valueSize int) (MemoryResult, error) {
	sim, err := New(cfg)
	if err != nil {
		return MemoryResult{}, err
	}
	defer sim.kernel.Shutdown()
	res := MemoryResult{Mode: sim.cfg.Mode, Clients: clients}
	// Up to 4 writers share a client node, as in a multi-core driver
	// host.
	nodes := (clients + 3) / 4
	for n := 0; n < nodes; n++ {
		sim.AddClientNode(fmt.Sprintf("cnode-%d", n))
	}
	for c := 0; c < clients; c++ {
		c := c
		cl := sim.NewClient(fmt.Sprintf("cnode-%d", c/4))
		sim.kernel.Go(fmt.Sprintf("writer-%d", c), func(p *simnet.Proc) {
			for i := 0; i < pairsPerClient; i++ {
				if !cl.Set(p, fmt.Sprintf("w%d-k%d", c, i), valueSize) {
					res.FailedSets++
				}
			}
		})
	}
	if _, err := sim.kernel.Run(0); err != nil {
		return MemoryResult{}, err
	}
	res.UsedBytes, res.CapacityBytes, res.EvictedBytes = sim.MemoryUsage()
	return res, nil
}
