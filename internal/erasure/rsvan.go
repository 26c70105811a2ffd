package erasure

import (
	"bytes"
	"fmt"
	"sync"
)

// RSVan is classic Reed-Solomon coding with a systematic generator
// matrix derived from a Vandermonde matrix (Jerasure's reed_sol_van, the
// scheme the paper selects as RS(K,M)). Encoding and decoding are dense
// GF(2^8) matrix-vector products executed with split-table slice
// kernels.
//
// Coding runs on the calling goroutine, one cache-sized segment of the
// shards at a time (runBlocked); parity and reconstruction buffers come
// from a shard BufferPool (DefaultPool unless WithPool says otherwise).
// Decoding inverts each loss pattern once (decoder).
type RSVan struct {
	k, m int
	// gen is the (k+m)×k systematic generator matrix: the top k rows
	// are the identity, the bottom m rows produce parity.
	gen  *Matrix
	opts codecOpts

	// inverses holds the decode matrix of each set of k source rows
	// met so far, at most maxInverses of them. A stored matrix is never
	// written again, so readers share it without copying.
	invMu    sync.RWMutex
	inverses map[ShardSet]*Matrix
}

// NewRSVan constructs an RS(k, m) Vandermonde code. k and m must be
// positive with k+m <= 256. With no options the code draws scratch
// buffers from DefaultPool. It starts no goroutine.
func NewRSVan(k, m int, opts ...Option) (*RSVan, error) {
	if err := checkKM(k, m); err != nil {
		return nil, err
	}
	v := Vandermonde(k+m, k)
	top := v.SubMatrix(seq(0, k))
	topInv, err := top.Invert()
	if err != nil {
		// Vandermonde square submatrices are always invertible.
		return nil, fmt.Errorf("rs-van generator: %w", err)
	}
	o := codecOpts{pool: DefaultPool}
	for _, opt := range opts {
		opt(&o)
	}
	return &RSVan{k: k, m: m, gen: v.Mul(topInv), opts: o, inverses: make(map[ShardSet]*Matrix)}, nil
}

func checkKM(k, m int) error {
	if k <= 0 || m <= 0 {
		return fmt.Errorf("erasure: k and m must be positive (k=%d, m=%d)", k, m)
	}
	if k+m > MaxShards {
		return fmt.Errorf("erasure: k+m must be <= %d (k=%d, m=%d)", MaxShards, k, m)
	}
	return nil
}

func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// K returns the number of data shards.
func (r *RSVan) K() int { return r.k }

// M returns the number of parity shards.
func (r *RSVan) M() int { return r.m }

// Name returns "rs-van".
func (r *RSVan) Name() string { return "rs-van" }

// Generator returns a copy of the systematic generator matrix, exposed
// for tests.
func (r *RSVan) Generator() *Matrix { return r.gen.Clone() }

// Encode computes the m parity shards from the k data shards.
func (r *RSVan) Encode(shards [][]byte) error {
	size, _, err := checkShards(shards, r.k, r.m, true)
	if err != nil {
		return err
	}
	jobs := make([]codeJob, 0, r.m)
	for row := 0; row < r.m; row++ {
		idx := r.k + row
		if shards[idx] == nil {
			// The first generator column overwrites the output, so a
			// dirty pool buffer is fine here.
			shards[idx] = r.opts.alloc(size)
		}
		jobs = append(jobs, codeJob{
			out:    shards[idx],
			coeffs: r.gen.Row(idx)[:r.k],
		})
	}
	runBlocked(jobs, shards[:r.k], size)
	return nil
}

// Reconstruct recovers every nil shard (data and parity) from any k
// present shards.
func (r *RSVan) Reconstruct(shards [][]byte) error {
	return r.reconstruct(shards, true)
}

// ReconstructData recovers only the missing data shards, leaving nil
// parity shards nil. Degraded reads need just the data, so skipping the
// parity recompute removes up to m dot products from the hot path.
func (r *RSVan) ReconstructData(shards [][]byte) error {
	return r.reconstruct(shards, false)
}

func (r *RSVan) reconstruct(shards [][]byte, withParity bool) error {
	size, present, err := checkShards(shards, r.k, r.m, false)
	if err != nil {
		return err
	}
	if present < r.k {
		return fmt.Errorf("%w: have %d of %d", ErrTooFewShards, present, r.k)
	}
	missingData := false
	for i := 0; i < r.k; i++ {
		if shards[i] == nil {
			missingData = true
			break
		}
	}
	if missingData {
		if err := r.reconstructData(shards, size); err != nil {
			return err
		}
	}
	if !withParity {
		return nil
	}
	// Recompute any missing parity directly from the (now complete)
	// data shards.
	jobs := make([]codeJob, 0, r.m)
	for row := 0; row < r.m; row++ {
		idx := r.k + row
		if shards[idx] != nil {
			continue
		}
		shards[idx] = r.opts.alloc(size)
		jobs = append(jobs, codeJob{
			out:    shards[idx],
			coeffs: r.gen.Row(idx)[:r.k],
		})
	}
	runBlocked(jobs, shards[:r.k], size)
	return nil
}

// inlineShards is how many sources and outputs a decode keeps on the
// stack, more than K at the usual geometries. A degraded read decodes
// on every call, so its slices must not cost an allocation each.
const inlineShards = 8

func (r *RSVan) reconstructData(shards [][]byte, size int) error {
	// The first k present shards are the sources; their rows of the
	// generator name the decode matrix.
	var srcBuf [inlineShards][]byte
	srcs := srcBuf[:0]
	var rows ShardSet
	for i := 0; i < len(shards) && len(srcs) < r.k; i++ {
		if shards[i] != nil {
			rows.Add(i)
			srcs = append(srcs, shards[i])
		}
	}
	dec, err := r.decoder(rows)
	if err != nil {
		return fmt.Errorf("rs-van decode: %w", err)
	}
	var jobBuf [inlineShards]codeJob
	jobs := jobBuf[:0]
	for d := 0; d < r.k; d++ {
		if shards[d] != nil {
			continue
		}
		shards[d] = r.opts.alloc(size)
		jobs = append(jobs, codeJob{out: shards[d], coeffs: dec.Row(d)})
	}
	runBlocked(jobs, srcs, size)
	return nil
}

// maxInverses bounds the decode matrices one RSVan keeps. A code has at
// most C(k+m, k) loss patterns — 10 at RS(3,2), 1001 at RS(10,4) — so
// every geometry up to there keeps all of them, in at most
// maxInverses·k² bytes; past the bound, a pattern not yet stored is
// inverted on each call and not stored.
const maxInverses = 1024

// decoder returns the inverse of the generator rows in rows, k of them:
// the matrix that maps those k shards back to the data. Each set of rows
// is inverted once; a hit takes the shared lock only and allocates
// nothing.
func (r *RSVan) decoder(rows ShardSet) (*Matrix, error) {
	r.invMu.RLock()
	dec := r.inverses[rows]
	r.invMu.RUnlock()
	if dec != nil {
		return dec, nil
	}
	sub := NewMatrix(r.k, r.k)
	for i, row := 0, 0; i < r.k; row++ {
		if rows.Has(row) {
			copy(sub.Row(i), r.gen.Row(row))
			i++
		}
	}
	dec, err := sub.Invert()
	if err != nil {
		return nil, err
	}
	r.invMu.Lock()
	if len(r.inverses) < maxInverses {
		r.inverses[rows] = dec
	}
	r.invMu.Unlock()
	return dec, nil
}

// Verify recomputes parity and compares it with the stored parity.
func (r *RSVan) Verify(shards [][]byte) (bool, error) {
	size, _, err := checkShards(shards, r.k, r.m, true)
	if err != nil {
		return false, err
	}
	for row := 0; row < r.m; row++ {
		if shards[r.k+row] == nil {
			return false, nil
		}
	}
	buf := r.opts.alloc(size)
	defer r.opts.release(buf)
	for row := 0; row < r.m; row++ {
		jobs := []codeJob{{
			out:    buf,
			coeffs: r.gen.Row(r.k + row)[:r.k],
		}}
		runBlocked(jobs, shards[:r.k], size)
		if !bytes.Equal(buf, shards[r.k+row]) {
			return false, nil
		}
	}
	return true, nil
}

// ReconstructData is code.ReconstructData as a function, the form
// bench/ calls.
func ReconstructData(code *RSVan, shards [][]byte) error {
	return code.ReconstructData(shards)
}
