package simkv

import (
	"testing"

	"ecstore/repro/internal/simnet"
)

func TestHybridModeRoundTrip(t *testing.T) {
	sim, err := New(Config{Mode: ModeHybrid, Seed: 1, HybridThreshold: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Kernel().Shutdown()
	sim.AddClientNode("client-0")
	cl := sim.NewClient("client-0")
	var smallOK, largeOK bool
	var smallSize, largeSize int
	sim.Kernel().Go("t", func(p *simnet.Proc) {
		if !cl.Set(p, "small", 4<<10) || !cl.Set(p, "large", 64<<10) {
			t.Error("hybrid sets failed")
		}
		smallSize, smallOK = cl.Get(p, "small")
		largeSize, largeOK = cl.Get(p, "large")
		if _, ok := cl.Get(p, "absent"); ok {
			t.Error("absent key found")
		}
	})
	if _, err := sim.Kernel().Run(0); err != nil {
		t.Fatal(err)
	}
	if !smallOK || !largeOK {
		t.Fatalf("gets: small=%v large=%v", smallOK, largeOK)
	}
	if smallSize != 4<<10 {
		t.Fatalf("small size %d", smallSize)
	}
	if largeSize < 63<<10 || largeSize > 66<<10 {
		t.Fatalf("large size %d", largeSize)
	}
}

func TestHybridModeMemoryFootprint(t *testing.T) {
	// Small values replicate (3x), large values erasure-code (~1.67x):
	// the hybrid footprint must sit strictly between pure policies.
	const (
		writers = 4
		pairs   = 20
		size    = 64 << 10 // above the threshold: EC path
	)
	run := func(mode Mode) int64 {
		res, err := RunMemory(Config{Mode: mode, Seed: 2}, writers, pairs, size)
		if err != nil {
			t.Fatal(err)
		}
		return res.UsedBytes
	}
	rep := run(ModeAsyncRep)
	hyb := run(ModeHybrid)
	era := run(ModeEraCECD)
	// All values are large, so hybrid ≈ era, well below replication.
	if hyb >= rep {
		t.Fatalf("hybrid used %d >= replication %d", hyb, rep)
	}
	diff := hyb - era
	if diff < 0 {
		diff = -diff
	}
	if diff > era/10 {
		t.Fatalf("hybrid used %d, era used %d; expected close", hyb, era)
	}
}

func TestHybridString(t *testing.T) {
	if ModeHybrid.String() != "hybrid" {
		t.Fatal(ModeHybrid.String())
	}
	if ModeHybrid.Erasure() {
		t.Fatal("hybrid reported as pure erasure")
	}
}
