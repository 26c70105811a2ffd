// Package calib supplies the encode/decode CPU cost model the
// simulator charges for Reed-Solomon computation. Costs follow the
// paper's modelling assumption that T_encode and T_decode are affine
// in the value size D (Section III-A): T(D) = c0 + c1·D.
//
// Default constants are pinned (measured once on a 2020s x86 host
// running the pure-Go codecs in internal/erasure) so simulations are
// identical across machines; Measure re-fits them on the local host
// for users who want the simulator to mirror their hardware.
package calib

import (
	"fmt"
	"math/rand"
	"time"

	"ecstore/internal/erasure"
)

// Cost is an affine time model T(D) = Fixed + PerByte·D.
type Cost struct {
	// Fixed is the size-independent setup cost.
	Fixed time.Duration
	// PerByte is the marginal cost per input byte.
	PerByte float64 // nanoseconds per byte
}

// At evaluates the model for a value of size bytes.
func (c Cost) At(size int) time.Duration {
	return c.Fixed + time.Duration(c.PerByte*float64(size))
}

// Model holds the coding cost model for one (K, M) configuration.
type Model struct {
	// K and M are the Reed-Solomon parameters the model was fit for.
	K, M int
	// Encode is the cost of encoding a D-byte value into K+M chunks.
	Encode Cost
	// Decode1 is the cost of reconstructing with one chunk missing.
	Decode1 Cost
	// Decode2 is the cost of reconstructing with two chunks missing.
	Decode2 Cost
}

// DecodeFor returns the reconstruction cost for the given number of
// missing chunks (zero cost when nothing is missing).
func (m Model) DecodeFor(missing int, size int) time.Duration {
	switch {
	case missing <= 0:
		return 0
	case missing == 1:
		return m.Decode1.At(size)
	default:
		return m.Decode2.At(size)
	}
}

// Default is the pinned RS(3,2) cost model used by the deterministic
// benchmarks. It is pinned to Jerasure-class (C with SIMD) throughputs
// on a Westmere-era Xeon — the paper's Figure 4 regime, a few hundred
// microseconds for a 1 MB pair — rather than to this repository's
// pure-Go codecs, which are 2-3x slower. Run `ecstudy -calibrate` to
// fit the model to the local pure-Go codecs instead.
var Default = Model{
	K: 3, M: 2,
	Encode:  Cost{Fixed: 2 * time.Microsecond, PerByte: 0.65},
	Decode1: Cost{Fixed: 3 * time.Microsecond, PerByte: 0.35},
	Decode2: Cost{Fixed: 4 * time.Microsecond, PerByte: 0.60},
}

// Measure fits a Model for RS(k, m) by timing the real codecs on this
// host at two anchor sizes.
func Measure(k, m int) (Model, error) {
	code, err := erasure.NewRSVan(k, m)
	if err != nil {
		return Model{}, err
	}
	const (
		small = 16 << 10
		large = 1 << 20
	)
	encSmall, dec1Small, dec2Small, err := timeOps(code, small)
	if err != nil {
		return Model{}, err
	}
	encLarge, dec1Large, dec2Large, err := timeOps(code, large)
	if err != nil {
		return Model{}, err
	}
	return Model{
		K: k, M: m,
		Encode:  fit(small, encSmall, large, encLarge),
		Decode1: fit(small, dec1Small, large, dec1Large),
		Decode2: fit(small, dec2Small, large, dec2Large),
	}, nil
}

// fit solves the two-point affine model through (s1, t1) and (s2, t2).
func fit(s1 int, t1 time.Duration, s2 int, t2 time.Duration) Cost {
	perByte := float64(t2-t1) / float64(s2-s1)
	if perByte < 0 {
		perByte = 0
	}
	fixed := t1 - time.Duration(perByte*float64(s1))
	if fixed < 0 {
		fixed = 0
	}
	return Cost{Fixed: fixed, PerByte: perByte}
}

// timeOps measures median encode and decode (1 and 2 erasures) times
// for one value size.
func timeOps(code *erasure.RSVan, size int) (enc, dec1, dec2 time.Duration, err error) {
	rng := rand.New(rand.NewSource(1))
	value := make([]byte, size)
	rng.Read(value)
	k, m := code.K(), code.M()

	const reps = 9
	encTimes := make([]time.Duration, 0, reps)
	dec1Times := make([]time.Duration, 0, reps)
	dec2Times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		shards := erasure.Split(value, k, m)
		start := time.Now()
		if err := code.Encode(shards); err != nil {
			return 0, 0, 0, fmt.Errorf("calib encode: %w", err)
		}
		encTimes = append(encTimes, time.Since(start))

		one := cloneShards(shards)
		one[0] = nil
		start = time.Now()
		if err := code.Reconstruct(one); err != nil {
			return 0, 0, 0, fmt.Errorf("calib decode1: %w", err)
		}
		dec1Times = append(dec1Times, time.Since(start))

		if m >= 2 {
			two := cloneShards(shards)
			two[0], two[1] = nil, nil
			start = time.Now()
			if err := code.Reconstruct(two); err != nil {
				return 0, 0, 0, fmt.Errorf("calib decode2: %w", err)
			}
			dec2Times = append(dec2Times, time.Since(start))
		}
	}
	enc = median(encTimes)
	dec1 = median(dec1Times)
	if m >= 2 {
		dec2 = median(dec2Times)
	} else {
		dec2 = dec1
	}
	return enc, dec1, dec2, nil
}

func cloneShards(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		out[i] = append([]byte(nil), s...)
	}
	return out
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	// Insertion sort: the slices are tiny.
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}
