package erasure

import (
	"errors"
	"math/rand"
	"testing"
)

func TestIdentity(t *testing.T) {
	id := Identity(4)
	if !id.IsIdentity() {
		t.Fatal("Identity(4) is not the identity")
	}
	m := NewMatrix(3, 3)
	m.Set(0, 0, 1)
	if m.IsIdentity() {
		t.Fatal("partial matrix reported as identity")
	}
	if NewMatrix(2, 3).IsIdentity() {
		t.Fatal("non-square matrix reported as identity")
	}
}

func TestMatrixMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(5, 5)
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			m.Set(r, c, byte(rng.Intn(256)))
		}
	}
	got := m.Mul(Identity(5))
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			if got.At(r, c) != m.At(r, c) {
				t.Fatalf("M*I differs at (%d,%d)", r, c)
			}
		}
	}
}

func TestMatrixMulShape(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 4)
	if p := a.Mul(b); p.Rows() != 2 || p.Cols() != 4 {
		t.Fatalf("product shape %dx%d, want 2x4", p.Rows(), p.Cols())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Mul did not panic")
		}
	}()
	a.Mul(NewMatrix(2, 2))
}

func TestVandermondeInvertible(t *testing.T) {
	for k := 1; k <= 8; k++ {
		v := Vandermonde(k+3, k)
		// Any k rows must form an invertible matrix.
		rows := []int{0, 2}
		for len(rows) < k {
			rows = append(rows, len(rows)+2)
		}
		rows = rows[:k]
		if _, err := v.SubMatrix(rows).Invert(); err != nil {
			t.Fatalf("k=%d rows=%v: %v", k, rows, err)
		}
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		m := NewMatrix(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				m.Set(r, c, byte(rng.Intn(256)))
			}
		}
		inv, err := m.Invert()
		if errors.Is(err, ErrSingular) {
			continue // random matrices can be singular
		}
		if err != nil {
			t.Fatal(err)
		}
		if !m.Mul(inv).IsIdentity() {
			t.Fatalf("trial %d: M * M^-1 != I", trial)
		}
		if !inv.Mul(m).IsIdentity() {
			t.Fatalf("trial %d: M^-1 * M != I", trial)
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(0, 1, 5)
	m.Set(1, 0, 3)
	m.Set(1, 1, 5)
	if _, err := m.Invert(); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular matrix: got err %v, want ErrSingular", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	if _, err := NewMatrix(2, 3).Invert(); err == nil {
		t.Fatal("inverting non-square matrix did not error")
	}
}
