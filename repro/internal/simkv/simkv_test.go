package simkv

import (
	"fmt"
	"testing"
	"time"

	"ecstore/internal/ycsb"
	"ecstore/repro/internal/simnet"
)

func allSimModes() []Mode {
	return []Mode{ModeNoRep, ModeSyncRep, ModeAsyncRep, ModeEraCECD, ModeEraSESD, ModeEraSECD, ModeEraCESD}
}

func TestModeString(t *testing.T) {
	for _, m := range allSimModes() {
		if m.String() == "" {
			t.Errorf("empty name for mode %d", m)
		}
	}
	if Mode(99).String() != "mode(99)" {
		t.Fatalf("unknown mode name %q", Mode(99).String())
	}
	if !ModeEraCECD.Erasure() || ModeAsyncRep.Erasure() {
		t.Fatal("Erasure() misclassifies")
	}
}

func TestMetaStore(t *testing.T) {
	m := newMetaStore(100)
	if !m.set("a", 40) || !m.set("b", 40) {
		t.Fatal("sets failed")
	}
	if _, ok := m.get("a"); !ok {
		t.Fatal("a missing")
	}
	// Setting c (40) must evict LRU = b (a was touched by get).
	if !m.set("c", 40) {
		t.Fatal("c failed")
	}
	if _, ok := m.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if m.evictions != 1 || m.evictedBytes != 40 {
		t.Fatalf("evictions=%d bytes=%d", m.evictions, m.evictedBytes)
	}
	if m.set("huge", 1000) {
		t.Fatal("oversized item accepted")
	}
	// Overwrite does not double count.
	m2 := newMetaStore(0)
	m2.set("k", 10)
	m2.set("k", 30)
	if m2.used != 30 {
		t.Fatalf("used=%d after overwrite", m2.used)
	}
}

func TestSetGetRoundTripAllModes(t *testing.T) {
	for _, mode := range allSimModes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			sim, err := New(Config{Mode: mode, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Kernel().Shutdown()
			sim.AddClientNode("client-0")
			cl := sim.NewClient("client-0")
			var setOK, getOK bool
			var gotSize int
			sim.Kernel().Go("t", func(p *simnet.Proc) {
				setOK = cl.Set(p, "key", 64<<10)
				gotSize, getOK = cl.Get(p, "key")
				if _, missOK := cl.Get(p, "absent"); missOK {
					t.Error("absent key found")
				}
			})
			if _, err := sim.Kernel().Run(0); err != nil {
				t.Fatal(err)
			}
			if !setOK || !getOK {
				t.Fatalf("setOK=%v getOK=%v", setOK, getOK)
			}
			// Size is recovered within chunk-padding tolerance.
			if gotSize < 63<<10 || gotSize > 66<<10 {
				t.Fatalf("size %d, want ~%d", gotSize, 64<<10)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() time.Duration {
		res, err := RunMicroSet(Config{Mode: ModeEraCECD, Seed: 7}, 64<<10, 50)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Sum()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestDegradedReadsAllErasureModes(t *testing.T) {
	for _, mode := range []Mode{ModeEraCECD, ModeEraSESD, ModeEraSECD, ModeEraCESD} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			res, err := RunMicroGet(Config{Mode: mode, Seed: 2}, 64<<10, 30, 2)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d failures with 2 of 5 servers down (RS(3,2) tolerates 2)", res.Failed)
			}
		})
	}
}

func TestTooManyFailures(t *testing.T) {
	res, err := RunMicroGet(Config{Mode: ModeEraCECD, Seed: 2}, 16<<10, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatal("reads succeeded with 3 of 5 servers down")
	}
}

func TestReplicationSurvivesFailures(t *testing.T) {
	for _, mode := range []Mode{ModeSyncRep, ModeAsyncRep} {
		res, err := RunMicroGet(Config{Mode: mode, Seed: 3}, 16<<10, 30, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("%s: %d failures with F=3 and 2 down", mode, res.Failed)
		}
	}
}

// --- Shape assertions for the paper's headline results ---

func microSet(t *testing.T, mode Mode, size int) MicroResult {
	t.Helper()
	res, err := RunMicroSet(Config{Mode: mode, Seed: 11}, size, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s: %d failed sets", mode, res.Failed)
	}
	return res
}

func microGet(t *testing.T, mode Mode, size, failures int) MicroResult {
	t.Helper()
	res, err := RunMicroGet(Config{Mode: mode, Seed: 11}, size, 100, failures)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s: %d failed ops", mode, res.Failed)
	}
	return res
}

func TestFig8aSetLatencyShape(t *testing.T) {
	const size = 1 << 20
	sync := microSet(t, ModeSyncRep, size).Mean()
	async := microSet(t, ModeAsyncRep, size).Mean()
	cecd := microSet(t, ModeEraCECD, size).Mean()
	sesd := microSet(t, ModeEraSESD, size).Mean()

	if async >= sync {
		t.Fatalf("async-rep (%v) not faster than sync-rep (%v)", async, sync)
	}
	// Paper: Era-CE-CD improves Set latency 1.6x-2.8x over Sync-Rep.
	speedup := float64(sync) / float64(cecd)
	if speedup < 1.3 {
		t.Fatalf("era-ce-cd speedup over sync-rep %.2f, want >= 1.3 (paper: 1.6-2.8)", speedup)
	}
	// Paper: Era-CE-CD performs close to Async-Rep at large sizes.
	ratio := float64(cecd) / float64(async)
	if ratio > 1.8 {
		t.Fatalf("era-ce-cd %.2fx of async-rep; paper says close", ratio)
	}
	// Paper: server-side encode is best on a low-load cluster at
	// >64 KB (up to 38%% better than CE-CD).
	if sesd > cecd*13/10 {
		t.Fatalf("era-se-sd (%v) much slower than era-ce-cd (%v); paper says SE wins at large sizes", sesd, cecd)
	}
}

func TestFig8bGetNoFailuresShape(t *testing.T) {
	const size = 256 << 10
	async := microGet(t, ModeAsyncRep, size, 0).Mean()
	cecd := microGet(t, ModeEraCECD, size, 0).Mean()
	// Paper: EC designs perform similar to Async-Rep with no failures.
	ratio := float64(cecd) / float64(async)
	if ratio > 1.5 || ratio < 0.4 {
		t.Fatalf("era-ce-cd/async-rep get ratio %.2f, want ~1", ratio)
	}
}

func TestFig8cDegradedGetShape(t *testing.T) {
	const size = 256 << 10
	async := microGet(t, ModeAsyncRep, size, 2).Mean()
	cecd := microGet(t, ModeEraCECD, size, 2).Mean()
	sesd := microGet(t, ModeEraSESD, size, 2).Mean()

	// Paper: Era-CE-CD/SE-CD degrade ~27% vs Async-Rep under max
	// failures — noticeably worse, but not catastrophically.
	ratio := float64(cecd) / float64(async)
	if ratio < 1.1 || ratio > 1.8 {
		t.Fatalf("degraded era-ce-cd/async ratio %.2f, want ~1.27", ratio)
	}
	// Paper: Era-SE-SD degrades ~2.2x vs Async-Rep, clearly the
	// worst scheme (serialized server-side ARPE).
	sesdRatio := float64(sesd) / float64(async)
	if sesdRatio < 1.4 {
		t.Fatalf("degraded era-se-sd/async ratio %.2f, want >= 1.4 (paper: 2.2)", sesdRatio)
	}
	if sesd <= cecd {
		t.Fatalf("degraded era-se-sd (%v) not slower than era-ce-cd (%v)", sesd, cecd)
	}
}

func TestFig9BreakdownPhases(t *testing.T) {
	res := microSet(t, ModeEraCECD, 1<<20)
	names, durs := res.Breakdown.Phases()
	total := time.Duration(0)
	hasEncode := false
	for i, n := range names {
		total += durs[i]
		if n == "encode-decode" && durs[i] > 0 {
			hasEncode = true
		}
	}
	if !hasEncode {
		t.Fatal("no encode-decode phase recorded for era-ce-cd set")
	}
	// Phases must account for (almost all of) the per-op completion
	// latency (which includes window queueing).
	mean := res.Latency.Mean()
	if total < mean*7/10 || total > mean*13/10 {
		t.Fatalf("breakdown total %v vs completion mean %v", total, mean)
	}
}

func TestFig10MemoryShape(t *testing.T) {
	// Scaled-down Figure 10: 5 servers x 64 MB; 8 writers x 20 x 1 MB
	// = 160 MB of application data.
	const (
		serverBytes = 64 << 20
		writers     = 8
		pairs       = 20
		valueSize   = 1 << 20
	)
	rep, err := RunMemory(Config{Mode: ModeAsyncRep, Seed: 4, ServerMemBytes: serverBytes}, writers, pairs, valueSize)
	if err != nil {
		t.Fatal(err)
	}
	era, err := RunMemory(Config{Mode: ModeEraCECD, Seed: 4, ServerMemBytes: serverBytes}, writers, pairs, valueSize)
	if err != nil {
		t.Fatal(err)
	}
	// Replication needs 3x160 = 480 MB > 320 MB capacity: full + loss.
	if rep.UsedPct() < 90 {
		t.Fatalf("async-rep used %.1f%%, want ~100%%", rep.UsedPct())
	}
	if rep.EvictedBytes == 0 {
		t.Fatal("async-rep suffered no data loss despite over-commit")
	}
	// EC needs 160*5/3 = 267 MB < 320 MB: fits with room to spare.
	if era.EvictedBytes != 0 {
		t.Fatalf("era evicted %d bytes; should fit", era.EvictedBytes)
	}
	if pct := era.UsedPct(); pct < 70 || pct > 95 {
		t.Fatalf("era used %.1f%%, want ~83%% (5/3 overhead)", pct)
	}
	if era.UsedBytes >= rep.UsedBytes {
		t.Fatal("era not more memory efficient than replication")
	}
}

func TestYCSBRunsAndEraBeatsIPoIB(t *testing.T) {
	yc := YCSBConfig{
		Workload:       ycsb.WorkloadA,
		ValueSize:      32 << 10,
		ClientNodes:    2,
		ClientsPerNode: 8,
		Records:        500,
		OpsPerClient:   40,
	}
	era, err := RunYCSB(Config{Mode: ModeEraCECD, Profile: simnet.ProfileFDR, Seed: 5}, yc)
	if err != nil {
		t.Fatal(err)
	}
	ipoib, err := RunYCSB(Config{Mode: ModeNoRep, Profile: simnet.ProfileIPoIB, Seed: 5}, yc)
	if err != nil {
		t.Fatal(err)
	}
	if era.Failed != 0 {
		t.Fatalf("era failed %d ops", era.Failed)
	}
	if era.Ops != 2*8*40 {
		t.Fatalf("ops = %d", era.Ops)
	}
	// Paper: 1.9-3x over IPoIB without replication.
	if era.Throughput() <= ipoib.Throughput() {
		t.Fatalf("era-ce-cd (%.0f ops/s) not faster than IPoIB (%.0f ops/s)",
			era.Throughput(), ipoib.Throughput())
	}
}

func TestYCSBEraVsAsyncRepLargeValues(t *testing.T) {
	// Paper: for >16 KB update-heavy workloads, Era-CE-CD beats
	// Async-Rep (1.34x on Comet).
	yc := YCSBConfig{
		Workload:       ycsb.WorkloadA,
		ValueSize:      32 << 10,
		ClientNodes:    2,
		ClientsPerNode: 10,
		Records:        400,
		OpsPerClient:   50,
	}
	era, err := RunYCSB(Config{Mode: ModeEraCECD, Profile: simnet.ProfileFDR, Seed: 6}, yc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunYCSB(Config{Mode: ModeAsyncRep, Profile: simnet.ProfileFDR, Seed: 6}, yc)
	if err != nil {
		t.Fatal(err)
	}
	if era.Throughput() <= rep.Throughput() {
		t.Fatalf("era-ce-cd (%.0f ops/s) not above async-rep (%.0f ops/s) at 32 KB",
			era.Throughput(), rep.Throughput())
	}
}

func TestChunkBytes(t *testing.T) {
	sim, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Kernel().Shutdown()
	// 1 MB across K=3: chunks are ~349526+header.
	cb := sim.chunkBytes(1 << 20)
	if cb < (1<<20)/3 || cb > (1<<20)/3+1024 {
		t.Fatalf("chunkBytes = %d", cb)
	}
}

func TestValueSizeFromChunks(t *testing.T) {
	if got := valueSizeFromChunks(300, 3, 3); got != 300 {
		t.Fatalf("got %d", got)
	}
	if got := valueSizeFromChunks(0, 3, 0); got != 0 {
		t.Fatalf("got %d", got)
	}
}

func TestPlacementDistinctOnBigCluster(t *testing.T) {
	sim, err := New(Config{Servers: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Kernel().Shutdown()
	for i := 0; i < 50; i++ {
		pl := sim.placement(fmt.Sprintf("key-%d", i), 5)
		seen := map[string]bool{}
		for _, s := range pl {
			if seen[s] {
				t.Fatalf("duplicate server in placement %v", pl)
			}
			seen[s] = true
		}
	}
}
