// Package gf256 implements arithmetic over the Galois field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the conventional choice for
// Reed-Solomon storage codes (and the one used by Jerasure and ISA-L for
// w = 8). Addition and subtraction are both XOR; multiplication and
// division are performed through discrete log/antilog tables.
//
// The package also provides the bulk slice kernels every matrix code in
// the repository is built on (MulSlice, MulAddSlice, AddSlice). Each is
// one function with two bodies under it, chosen by the hardware:
//
//   - On amd64 with AVX2 (checked once, at init) whole 32-byte blocks go
//     through an assembly kernel using GF-Complete's SIMD split tables,
//     the arithmetic under the paper's Jerasure v2.0: per coefficient two
//     16-entry nibble tables (c·x and c·(x<<4), 8 KB for all 256
//     coefficients), and per block a shift, two masks, two VPSHUFB table
//     lookups and an XOR, 64 bytes per loop iteration.
//   - The tail (len % 32), and the whole slice on every other
//     architecture, on amd64 without AVX2 or under the purego build tag,
//     goes through the portable loop: one load per byte from the
//     coefficient's row of the full 256×256 product table, unrolled eight
//     bytes per iteration (plain uint64 XOR words for AddSlice).
//
// Both bodies compute the same bytes; nothing selects between them but
// the CPU and the purego tag.
package gf256

import (
	"encoding/binary"
	"fmt"
)

// Poly is the primitive polynomial used to construct the field,
// represented with the x^8 term included.
const Poly = 0x11D

// Order is the number of elements in the field.
const Order = 256

var _tables = buildTables()

// tables holds every precomputed lookup used by the package.
type tables struct {
	exp [510]byte      // exp[i] = α^i, doubled to avoid mod 255 in Mul
	log [256]byte      // log[x] = i such that α^i = x (log[0] unused)
	inv [256]byte      // inv[x] = x^-1 (inv[0] unused)
	mul [256][256]byte // full multiplication table
}

func buildTables() *tables {
	t := &tables{}
	x := 1
	for i := 0; i < 255; i++ {
		t.exp[i] = byte(x)
		t.log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for i := 255; i < 510; i++ {
		t.exp[i] = t.exp[i-255]
	}
	for a := 1; a < 256; a++ {
		// α^(255 - log a) = a^-1 since α^255 = 1.
		t.inv[a] = t.exp[255-int(t.log[a])]
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			t.mul[a][b] = slowMul(byte(a), byte(b))
		}
	}
	return t
}

// slowMul multiplies two field elements with shift-and-add (Russian
// peasant) reduction. It is used only to build the lookup tables.
func slowMul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= byte(Poly & 0xFF)
		}
		b >>= 1
	}
	return p
}

// Add returns a + b in GF(2^8). Addition is XOR.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8). Subtraction equals addition.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte { return _tables.mul[a][b] }

// Div returns a / b in GF(2^8). It panics if b is zero, mirroring the
// behaviour of integer division by zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return _tables.exp[int(_tables.log[a])+255-int(_tables.log[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: zero has no inverse")
	}
	return _tables.inv[a]
}

// Exp returns α^n where α = 2 is the field generator. n may be any
// non-negative integer.
func Exp(n int) byte {
	if n < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", n))
	}
	return _tables.exp[n%255]
}

// Log returns the discrete logarithm of a to base α. It panics if a is
// zero, which has no logarithm.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: zero has no logarithm")
	}
	return int(_tables.log[a])
}

// Pow returns a raised to the n-th power.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	logA := int(_tables.log[a])
	return _tables.exp[(logA*n)%255]
}

// MulSlice computes out[i] = c * in[i] for every element. The two slices
// must have equal length; out may alias in exactly (the same first
// element), not overlap it partially.
func MulSlice(c byte, in, out []byte) {
	if len(in) != len(out) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		clear(out)
		return
	case 1:
		copy(out, in)
		return
	}
	n := mulVec(c, in, out)
	in, out = in[n:], out[n:]
	p := &_tables.mul[c]
	for i, v := range in {
		out[i] = p[v]
	}
}

// MulAddSlice computes out[i] ^= c * in[i] for every element. The two
// slices must have equal length; out may alias in exactly. This is the
// inner kernel of matrix-based erasure coding.
//
// Whole 32-byte blocks go through the vector kernel where there is one
// (see the package comment). The portable loop under it indexes the full
// 256-entry product row for c (one load per byte instead of the two
// nibble-table loads) and processes eight bytes per iteration over
// bounds-check-free sub-slices, with a byte loop for the last few.
func MulAddSlice(c byte, in, out []byte) {
	if len(in) != len(out) {
		panic("gf256: MulAddSlice length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		AddSlice(in, out)
		return
	}
	v := mulAddVec(c, in, out)
	in, out = in[v:], out[v:]
	p := &_tables.mul[c]
	n := len(in) &^ 7
	for i := 0; i < n; i += 8 {
		a, b := in[i:i+8:i+8], out[i:i+8:i+8]
		b[0] ^= p[a[0]]
		b[1] ^= p[a[1]]
		b[2] ^= p[a[2]]
		b[3] ^= p[a[3]]
		b[4] ^= p[a[4]]
		b[5] ^= p[a[5]]
		b[6] ^= p[a[6]]
		b[7] ^= p[a[7]]
	}
	for i := n; i < len(in); i++ {
		out[i] ^= p[in[i]]
	}
}

// AddSlice computes out[i] ^= in[i] for every element: the c = 1 case
// of MulAddSlice, which every parity row with a unit coefficient takes.
// Whole 32-byte blocks go through the vector kernel where there
// is one; the portable loop XORs eight bytes per iteration as uint64
// words, with a byte loop for the last few.
func AddSlice(in, out []byte) {
	if len(in) != len(out) {
		panic("gf256: AddSlice length mismatch")
	}
	v := addVec(in, out)
	in, out = in[v:], out[v:]
	n := len(in) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(out[i:],
			binary.LittleEndian.Uint64(out[i:])^binary.LittleEndian.Uint64(in[i:]))
	}
	for i := n; i < len(in); i++ {
		out[i] ^= in[i]
	}
}
