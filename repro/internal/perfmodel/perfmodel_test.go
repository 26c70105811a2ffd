package perfmodel

import (
	"testing"
	"time"

	"ecstore/repro/internal/calib"
	"ecstore/repro/internal/simnet"
)

func testParams() Params {
	return Params{
		Profile: simnet.Profile{
			Name:        "model-test",
			Latency:     2 * time.Microsecond,
			BytesPerSec: 3.2e9,
		},
		Calib:  calib.Default,
		F:      3,
		K:      3,
		M:      2,
		TCheck: 500 * time.Nanosecond,
	}
}

func TestTComm(t *testing.T) {
	p := testParams()
	// 3200 bytes at 3.2 GB/s = 1µs; plus L = 2µs.
	if got := p.TComm(3200); got != 3*time.Microsecond {
		t.Fatalf("TComm = %v", got)
	}
	if got := p.TComm(0); got != 2*time.Microsecond {
		t.Fatalf("TComm(0) = %v", got)
	}
}

func TestRepSetIsFTimesTComm(t *testing.T) {
	p := testParams()
	d := 64 << 10
	if got, want := p.RepSet(d), 3*p.TComm(d); got != want {
		t.Fatalf("RepSet = %v, want %v", got, want)
	}
}

func TestIdealBoundsNaive(t *testing.T) {
	p := testParams()
	for _, d := range []int{512, 16 << 10, 1 << 20} {
		if p.RepSetIdeal(d) > p.RepSet(d) {
			t.Fatalf("rep ideal exceeds naive at %d", d)
		}
		if p.EraSetIdeal(d) > p.EraSet(d) {
			t.Fatalf("era set ideal exceeds naive at %d", d)
		}
		for _, f := range []int{0, 1, 2} {
			if p.EraGetIdeal(d, f) > p.EraGet(d, f) {
				t.Fatalf("era get ideal exceeds naive at %d, failures %d", d, f)
			}
		}
	}
}

func TestErasureReducesResponseWait(t *testing.T) {
	// The EC stripe sends D/K per chunk, so per-message response-wait
	// shrinks by ~K vs replication (Section III-A's observation).
	p := testParams()
	d := 1 << 20
	repWait := p.TComm(d)
	eraWait := p.TComm(p.chunk(d))
	if eraWait >= repWait {
		t.Fatalf("era per-chunk wait %v not below rep wait %v", eraWait, repWait)
	}
	// Roughly K-fold for large D where L is negligible.
	ratio := float64(repWait) / float64(eraWait)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("wait ratio %.2f, want ~3 (K)", ratio)
	}
}

func TestIdealEraSetBeatsSyncRepAtLargeD(t *testing.T) {
	// The headline claim: overlapped EC writes beat synchronous
	// replication by well over 2x for large values.
	p := testParams()
	d := 1 << 20
	speedup := float64(p.RepSet(d)) / float64(p.EraSetIdeal(d))
	if speedup < 1.2 {
		t.Fatalf("speedup %.2f; overlapped EC should beat sync-rep", speedup)
	}
}

func TestEraGetDegradedCostsMore(t *testing.T) {
	p := testParams()
	d := 256 << 10
	if p.EraGet(d, 2) <= p.EraGet(d, 0) {
		t.Fatal("degraded read not more expensive")
	}
	if p.EraGet(d, 2) <= p.EraGet(d, 1) {
		t.Fatal("two failures not more expensive than one")
	}
}

func TestRepGetCheaperThanDegradedEraGet(t *testing.T) {
	// Figure 8(c): replication only pays T_check under failures while
	// EC pays decode + K round trips.
	p := testParams()
	d := 256 << 10
	if p.RepGet(d) >= p.EraGet(d, 2) {
		t.Fatal("degraded EC read should cost more than replicated read")
	}
}

func TestN(t *testing.T) {
	if testParams().N() != 5 {
		t.Fatal("N != K+M")
	}
}

func TestChunkRoundsUp(t *testing.T) {
	p := testParams()
	if p.chunk(10) != 4 { // ceil(10/3)
		t.Fatalf("chunk(10) = %d", p.chunk(10))
	}
	p.K = 0
	if p.chunk(10) != 10 {
		t.Fatal("chunk with K=0 must pass through")
	}
}
