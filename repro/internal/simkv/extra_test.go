package simkv

import (
	"fmt"
	"testing"
	"time"

	"ecstore/internal/ycsb"
	"ecstore/repro/internal/simnet"
)

func TestYCSBDeterminism(t *testing.T) {
	run := func() (float64, time.Duration) {
		res, err := RunYCSB(Config{Mode: ModeEraCECD, Seed: 3}, YCSBConfig{
			Workload: ycsb.WorkloadA, ValueSize: 16 << 10,
			ClientNodes: 2, ClientsPerNode: 4,
			Records: 200, OpsPerClient: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput(), res.ReadLatency.Mean()
	}
	t1, l1 := run()
	t2, l2 := run()
	if t1 != t2 || l1 != l2 {
		t.Fatalf("non-deterministic YCSB: %v/%v vs %v/%v", t1, l1, t2, l2)
	}
}

func TestYCSBDifferentSeedsDiffer(t *testing.T) {
	run := func(seed int64) time.Duration {
		res, err := RunYCSB(Config{Mode: ModeEraCECD, Seed: seed}, YCSBConfig{
			Workload: ycsb.WorkloadA, ValueSize: 16 << 10,
			ClientNodes: 2, ClientsPerNode: 4,
			Records: 200, OpsPerClient: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if run(1) == run(99) {
		t.Fatal("different seeds produced identical elapsed times (suspicious)")
	}
}

func TestWindowForSyncRepIsOne(t *testing.T) {
	cfg := (Config{Mode: ModeSyncRep, Window: 32}).withDefaults()
	if windowFor(cfg) != 1 {
		t.Fatalf("sync-rep window = %d, want 1 (blocking APIs)", windowFor(cfg))
	}
	cfg = (Config{Mode: ModeAsyncRep, Window: 32}).withDefaults()
	if windowFor(cfg) != 32 {
		t.Fatalf("async-rep window = %d", windowFor(cfg))
	}
}

func TestRandomPlacementIsDeterministicPerKey(t *testing.T) {
	sim, err := New(Config{Seed: 1, RandomPlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Kernel().Shutdown()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		a := sim.placement(key, 5)
		b := sim.placement(key, 5)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("random placement not stable for %s: %v vs %v", key, a, b)
		}
		seen := map[string]bool{}
		for _, s := range a {
			if seen[s] {
				t.Fatalf("duplicate in %v", a)
			}
			seen[s] = true
		}
	}
	// Different keys get different permutations (statistically).
	distinct := map[string]bool{}
	for i := 0; i < 20; i++ {
		distinct[fmt.Sprint(sim.placement(fmt.Sprintf("key-%d", i), 5))] = true
	}
	if len(distinct) < 5 {
		t.Fatalf("only %d distinct permutations over 20 keys", len(distinct))
	}
}

func TestMemoryRunnerFailedSetsWhenValueTooLarge(t *testing.T) {
	// A value bigger than a server's whole budget cannot be stored.
	cfg := Config{Mode: ModeNoRep, Seed: 1, ServerMemBytes: 1 << 20}
	res, err := RunMemory(cfg, 2, 3, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedSets != 6 {
		t.Fatalf("failedSets = %d, want all 6", res.FailedSets)
	}
}

func TestIPoIBSlowerThanRDMA(t *testing.T) {
	run := func(p simnet.Profile) time.Duration {
		res, err := RunMicroSet(Config{Mode: ModeNoRep, Profile: p, Seed: 2}, 64<<10, 50)
		if err != nil {
			t.Fatal(err)
		}
		return res.Mean()
	}
	ipoib := run(simnet.ProfileIPoIB)
	rdma := run(simnet.ProfileQDR)
	if ipoib <= rdma*2 {
		t.Fatalf("IPoIB %v not clearly slower than RDMA %v", ipoib, rdma)
	}
}

func TestMicroGetLatencyHistogramPopulated(t *testing.T) {
	res, err := RunMicroGet(Config{Mode: ModeEraCECD, Seed: 1}, 16<<10, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() != 50 {
		t.Fatalf("histogram has %d samples", res.Latency.Count())
	}
	if res.Latency.Percentile(99) < res.Latency.Percentile(50) {
		t.Fatal("p99 < p50")
	}
}

func TestEagerThresholdAffectsSmallChunkLatency(t *testing.T) {
	// Era-CE-CD splits 32 KB into ~11 KB chunks. With the standard
	// 16 KB threshold those are eager; forcing the threshold to 4 KB
	// makes them pay the rendezvous handshake and slows sets.
	base := simnet.ProfileQDR
	low := simnet.ProfileQDR
	low.EagerThreshold = 4 << 10
	runWith := func(p simnet.Profile) time.Duration {
		res, err := RunMicroSet(Config{Mode: ModeEraCECD, Profile: p, Seed: 4, Window: 1}, 32<<10, 100)
		if err != nil {
			t.Fatal(err)
		}
		return res.Mean()
	}
	if runWith(low) <= runWith(base) {
		t.Fatal("lower eager threshold did not slow chunked writes")
	}
}
