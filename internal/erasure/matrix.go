package erasure

import (
	"errors"
	"fmt"

	"ecstore/internal/gf256"
)

// ErrSingular is returned when a matrix that must be invertible is
// singular. With MDS generator constructions this indicates corrupted
// inputs rather than an expected runtime condition.
var ErrSingular = errors.New("erasure: matrix is singular")

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("erasure: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows×cols Vandermonde matrix with
// entry (r, c) = r^c over GF(2^8). Any cols rows of it are linearly
// independent as long as rows <= 256, which is what makes it suitable as
// the seed of an MDS generator matrix.
func Vandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, gf256.Pow(byte(r), c))
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns a view of row r. The caller must not grow the slice.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Mul returns m × other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("erasure: cannot multiply %dx%d by %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := NewMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			gf256.MulAddSlice(a, other.Row(k), out.Row(r))
		}
	}
	return out
}

// SubMatrix returns the matrix formed from the listed rows, in order.
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// IsIdentity reports whether m is square and equal to the identity.
func (m *Matrix) IsIdentity() bool {
	if m.rows != m.cols {
		return false
	}
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if m.At(r, c) != want {
				return false
			}
		}
	}
	return true
}

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination over GF(2^8). It returns ErrSingular if no inverse exists.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("erasure: cannot invert %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale the pivot row so the pivot element becomes 1.
		if p := work.At(col, col); p != 1 {
			pinv := gf256.Inv(p)
			gf256.MulSlice(pinv, work.Row(col), work.Row(col))
			gf256.MulSlice(pinv, inv.Row(col), inv.Row(col))
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			gf256.MulAddSlice(f, work.Row(col), work.Row(r))
			gf256.MulAddSlice(f, inv.Row(col), inv.Row(r))
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}
