// Package perfmodel implements the paper's analytical latency model
// (Section III-A, Equations 1–8) for Set/Get operations under
// replication and RS(K,M) erasure coding. The benchmark harness uses
// it to cross-check the discrete-event simulator: measured (simulated)
// latencies must land between each scheme's naive and ideal bounds.
package perfmodel

import (
	"time"

	"ecstore/repro/internal/calib"
	"ecstore/repro/internal/simnet"
)

// Params holds the model inputs: the fabric (L and B), the coding cost
// model, the replication factor F, and the RS parameters (K, M).
type Params struct {
	// Profile supplies L (latency) and B (bandwidth).
	Profile simnet.Profile
	// Calib supplies T_encode and T_decode.
	Calib calib.Model
	// F is the replication factor.
	F int
	// K and M are the Reed-Solomon parameters; N = K + M.
	K, M int
	// TCheck is replication's fixed live-server selection overhead
	// (Equation 4).
	TCheck time.Duration
}

// N returns the erasure stripe width K + M.
func (p Params) N() int { return p.K + p.M }

// TComm is Equation 1: the communication time for a D-byte payload,
// T_comm(D) = L + D/B.
func (p Params) TComm(d int) time.Duration {
	return p.Profile.Latency + p.ser(d)
}

func (p Params) ser(d int) time.Duration {
	if p.Profile.BytesPerSec <= 0 || d <= 0 {
		return 0
	}
	return time.Duration(float64(d) / p.Profile.BytesPerSec * float64(time.Second))
}

// chunk returns the per-chunk payload D/K.
func (p Params) chunk(d int) int {
	if p.K <= 0 {
		return d
	}
	return (d + p.K - 1) / p.K
}

// RepSet is Equation 2: synchronous replication writes F copies
// back to back, T = F · (L + D/B).
func (p Params) RepSet(d int) time.Duration {
	return time.Duration(p.F) * p.TComm(d)
}

// EraSet is Equation 3: naive (non-overlapped) erasure-coded write,
// T = T_encode(D) + N · (L + D/(B·K)).
func (p Params) EraSet(d int) time.Duration {
	return p.Calib.Encode.At(d) + time.Duration(p.N())*p.TComm(p.chunk(d))
}

// RepGet is Equation 4: replicated read from the primary,
// T = T_check + L + D/B.
func (p Params) RepGet(d int) time.Duration {
	return p.TCheck + p.TComm(d)
}

// EraGet is Equation 5: naive erasure-coded read aggregating K chunks,
// T = T_decode(D) + K · (L + D/(B·K)). failures selects the decode
// cost (0 when no chunk is missing).
func (p Params) EraGet(d, failures int) time.Duration {
	return p.Calib.DecodeFor(failures, d) + time.Duration(p.K)*p.TComm(p.chunk(d))
}

// RepSetIdeal is Equation 6: fully overlapped replication,
// T = max over replicas of (L + D/B) = L + D/B.
func (p Params) RepSetIdeal(d int) time.Duration {
	return p.TComm(d)
}

// EraSetIdeal is Equation 7: fully overlapped erasure-coded write,
// T = T_encode(D) + max over the N chunks of (L + D/(B·K)).
func (p Params) EraSetIdeal(d int) time.Duration {
	return p.Calib.Encode.At(d) + p.TComm(p.chunk(d))
}

// EraGetIdeal is Equation 8: fully overlapped erasure-coded read,
// T = T_decode(D) + max over the K chunks of (L + D/(B·K)).
func (p Params) EraGetIdeal(d, failures int) time.Duration {
	return p.Calib.DecodeFor(failures, d) + p.TComm(p.chunk(d))
}
