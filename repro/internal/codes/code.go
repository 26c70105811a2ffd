// Package codes holds the three MDS erasure codes of the paper's
// Jerasure comparison (Figure 4) behind one interface: Reed-Solomon with
// a Vandermonde-derived generator (the store's own erasure.RSVan),
// Cauchy Reed-Solomon executed as a GF(2) bit matrix (CauchyRS), and a
// RAID-6 bit-matrix code in the style of the Liberation/Liber8tion
// minimum density codes (Liberation).
//
// Only the study needs the bit-matrix codes: the store builds RSVan,
// the code Figure 4 selects.
package codes

import (
	"fmt"

	"ecstore/internal/erasure"
	"ecstore/internal/gf256"
)

// Code is an MDS erasure code with K data shards and M parity shards:
// a value is split into K equally sized data chunks (erasure.Split), M
// parity chunks are computed, and the value can be recovered from any K
// of the K+M chunks.
//
// Implementations are safe for concurrent use by multiple goroutines:
// all mutable state is confined to the arguments.
type Code interface {
	// K returns the number of data shards.
	K() int
	// M returns the number of parity shards.
	M() int
	// Name returns a short identifier such as "rs-van".
	Name() string
	// Encode fills shards[K..K+M-1] (parity) from shards[0..K-1]
	// (data). All K data shards must be non-nil and the same length;
	// parity shards must be nil or already of the same length.
	Encode(shards [][]byte) error
	// Reconstruct fills every nil shard (data or parity) from the
	// non-nil ones. At least K shards must be non-nil.
	Reconstruct(shards [][]byte) error
	// Verify reports whether the parity shards are consistent with the
	// data shards.
	Verify(shards [][]byte) (bool, error)
}

var _ Code = (*erasure.RSVan)(nil)

// All returns the codes Figure 4 compares at RS(k, m): RSVan, CauchyRS
// and, when m == 2, Liberation.
func All(k, m int) ([]Code, error) {
	rs, err := erasure.NewRSVan(k, m)
	if err != nil {
		return nil, err
	}
	crs, err := NewCauchyRS(k, m)
	if err != nil {
		return nil, err
	}
	all := []Code{rs, crs}
	if m == 2 {
		lib, err := NewLiberation(k)
		if err != nil {
			return nil, err
		}
		all = append(all, lib)
	}
	return all, nil
}

// Cauchy returns the rows×cols Cauchy matrix with entry
// (r, c) = 1 / (x_r + y_c) where x_r = r + cols and y_c = c. Every square
// submatrix of a Cauchy matrix is invertible, so the stacked
// [identity; cauchy] generator is MDS by construction.
func Cauchy(rows, cols int) *erasure.Matrix {
	if rows+cols > 256 {
		panic("codes: cauchy matrix requires rows+cols <= 256")
	}
	m := erasure.NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, gf256.Inv(byte(r+cols)^byte(c)))
		}
	}
	return m
}

func checkKM(k, m int) error {
	if k <= 0 || m <= 0 {
		return fmt.Errorf("codes: k and m must be positive (k=%d, m=%d)", k, m)
	}
	if k+m > erasure.MaxShards {
		return fmt.Errorf("codes: k+m must be <= %d (k=%d, m=%d)", erasure.MaxShards, k, m)
	}
	return nil
}

// checkShards validates the shape of a shard slice, as RSVan does. It
// returns the shard size (from the first non-nil shard) and the count
// of non-nil shards.
func checkShards(shards [][]byte, k, m int, forEncode bool) (size, present int, err error) {
	if len(shards) != k+m {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", erasure.ErrShardCount, len(shards), k+m)
	}
	size = -1
	for i, s := range shards {
		if s == nil {
			if forEncode && i < k {
				return 0, 0, fmt.Errorf("%w: data shard %d is nil", erasure.ErrShardSize, i)
			}
			continue
		}
		present++
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, 0, fmt.Errorf("%w: shard %d has %d bytes, others %d", erasure.ErrShardSize, i, len(s), size)
		}
	}
	if size <= 0 {
		return 0, 0, fmt.Errorf("%w: no non-empty shards", erasure.ErrShardSize)
	}
	return size, present, nil
}
