package codes

import (
	"fmt"

	"ecstore/internal/erasure"
	"ecstore/internal/gf256"
)

// BitMatrix is a dense matrix over GF(2), used by the Cauchy
// Reed-Solomon and RAID-6 bit-matrix codes. One byte per bit keeps the
// inversion code simple; the matrices are tiny (w·(k+m) × w·k with
// w = 8), so the representation is irrelevant to coding throughput,
// which is dominated by the packet XOR schedule.
type BitMatrix struct {
	rows, cols int
	bits       []byte
}

// NewBitMatrix returns a zero rows×cols bit matrix.
func NewBitMatrix(rows, cols int) *BitMatrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("erasure: invalid bit matrix dimensions %dx%d", rows, cols))
	}
	return &BitMatrix{rows: rows, cols: cols, bits: make([]byte, rows*cols)}
}

// IdentityBits returns the n×n identity bit matrix.
func IdentityBits(n int) *BitMatrix {
	m := NewBitMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *BitMatrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *BitMatrix) Cols() int { return m.cols }

// At returns the bit at (r, c) as 0 or 1.
func (m *BitMatrix) At(r, c int) byte { return m.bits[r*m.cols+c] }

// Set assigns the bit at (r, c); v must be 0 or 1.
func (m *BitMatrix) Set(r, c int, v byte) { m.bits[r*m.cols+c] = v & 1 }

// Row returns a view of row r.
func (m *BitMatrix) Row(r int) []byte { return m.bits[r*m.cols : (r+1)*m.cols] }

// Clone returns a deep copy.
func (m *BitMatrix) Clone() *BitMatrix {
	c := NewBitMatrix(m.rows, m.cols)
	copy(c.bits, m.bits)
	return c
}

// SubMatrixRows returns the matrix formed from the listed rows.
func (m *BitMatrix) SubMatrixRows(rows []int) *BitMatrix {
	out := NewBitMatrix(len(rows), m.cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// SetBlock writes the 8×8 bit matrix of the GF(2^8) multiply-by-e linear
// map into the block whose top-left corner is (r0, c0). Column c of the
// block is the bit pattern of e·α^c, since the input basis vector 2^c
// maps to e·2^c.
func (m *BitMatrix) SetBlock(r0, c0 int, e byte) {
	for c := 0; c < 8; c++ {
		prod := gf256.Mul(e, 1<<c)
		for r := 0; r < 8; r++ {
			m.Set(r0+r, c0+c, (prod>>r)&1)
		}
	}
}

// Invert returns the inverse over GF(2) using Gauss-Jordan elimination,
// or erasure.ErrSingular if the matrix is not invertible.
func (m *BitMatrix) Invert() (*BitMatrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("erasure: cannot invert %dx%d bit matrix", m.rows, m.cols)
	}
	n := m.rows
	work := m.Clone()
	inv := IdentityBits(n)
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, erasure.ErrSingular
		}
		if pivot != col {
			swapBitRows(work, pivot, col)
			swapBitRows(inv, pivot, col)
		}
		for r := 0; r < n; r++ {
			if r == col || work.At(r, col) == 0 {
				continue
			}
			xorBytes(work.Row(col), work.Row(r))
			xorBytes(inv.Row(col), inv.Row(r))
		}
	}
	return inv, nil
}

func swapBitRows(m *BitMatrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// xorBytes computes dst[i] ^= src[i]. It is a deliberately plain
// byte-wise loop: the bit-matrix codes execute as many small packet
// XOR passes, and this models the per-byte XOR cost of a portable
// (non-SIMD) Jerasure-style implementation, which is what the paper's
// Figure 4 measures at key-value-pair sizes.
func xorBytes(src, dst []byte) {
	if len(src) != len(dst) {
		panic("erasure: xorBytes length mismatch")
	}
	for i, v := range src {
		dst[i] ^= v
	}
}
