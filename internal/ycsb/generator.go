// Package ycsb reimplements the parts of the Yahoo! Cloud Serving
// Benchmark the paper's evaluation uses: the scrambled Zipfian request
// distribution ("skewed data popularity"), workloads A (update heavy,
// 50:50) and B (read heavy, 95:5), and a multi-client runner that
// reports read/write latency histograms and aggregate throughput
// (Figures 11 and 12).
package ycsb

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
)

// ZipfianConstant is YCSB's default skew parameter.
const ZipfianConstant = 0.99

// Generator produces item indexes in a fixed item space [0, n).
type Generator interface {
	// Next draws the next item index using rng.
	Next(rng *rand.Rand) uint64
}

// Zipfian draws from a Zipfian distribution over [0, n) using the
// Gray et al. rejection-free method, as in YCSB's ZipfianGenerator.
// Item 0 is the most popular.
type Zipfian struct {
	items      uint64
	theta      float64
	zetan      float64
	zeta2theta float64
	alpha      float64
	eta        float64
}

// NewZipfian returns a Zipfian generator over n items with the given
// theta (use ZipfianConstant for YCSB's default).
func NewZipfian(n uint64, theta float64) *Zipfian {
	if n == 0 {
		panic("ycsb: zipfian generator needs n > 0")
	}
	z := &Zipfian{items: n, theta: theta}
	z.zeta2theta = zeta(2, theta)
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

var _ Generator = (*Zipfian)(nil)

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next index (0 is the hottest item).
func (z *Zipfian) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	idx := uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.items {
		idx = z.items - 1
	}
	return idx
}

// ScrambledZipfian spreads the Zipfian popularity mass over the whole
// item space by hashing, YCSB's default request distribution: the
// hottest items are scattered rather than clustered at low indexes, so
// they land on different servers — the skew pattern behind the paper's
// load-balancing observations.
type ScrambledZipfian struct {
	z *Zipfian
}

// NewScrambledZipfian returns the YCSB default request distribution
// over n items.
func NewScrambledZipfian(n uint64) *ScrambledZipfian {
	return &ScrambledZipfian{z: NewZipfian(n, ZipfianConstant)}
}

var _ Generator = (*ScrambledZipfian)(nil)

// Next draws the next index.
func (s *ScrambledZipfian) Next(rng *rand.Rand) uint64 {
	return fnvHash64(s.z.Next(rng)) % s.z.items
}

func fnvHash64(v uint64) uint64 {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	h := fnv.New64a()
	_, _ = h.Write(buf[:])
	return h.Sum64()
}
