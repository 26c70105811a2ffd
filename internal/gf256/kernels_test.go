package gf256

import (
	"bytes"
	"testing"
)

// Differential tests of the three slice kernels against a byte-at-a-time
// oracle built from Mul. They run against whichever body the build and
// the hardware select — the AVX2 kernels on amd64, the portable loops
// under -tags purego — and hold for both.

const guard = 32 // sentinel bytes kept on each side of out

// cornerLengths are the lengths beyond the exhaustive 0…130 sweep: the
// 344-byte shard of a 1 KB value and its ragged neighbour, and sizes a
// block or a byte past whole numbers of 64-byte iterations.
var cornerLengths = []int{341, 344, 4096, 4097, 32<<10 + 31}

// sliceKernel pairs a kernel with its oracle: ref gives the byte out[i]
// must hold afterwards from in[i] and the out[i] it held before.
type sliceKernel struct {
	name string
	run  func(in, out []byte)
	ref  func(in, out byte) byte
}

func sliceKernels(c byte) []sliceKernel {
	return []sliceKernel{
		{"MulSlice", func(in, out []byte) { MulSlice(c, in, out) }, func(in, _ byte) byte { return Mul(c, in) }},
		{"MulAddSlice", func(in, out []byte) { MulAddSlice(c, in, out) }, func(in, out byte) byte { return out ^ Mul(c, in) }},
		{"AddSlice", func(in, out []byte) { AddSlice(in, out) }, func(in, out byte) byte { return out ^ in }},
	}
}

// kernelRig holds buffers large enough for the longest case at the
// largest offsets, reused across calls.
type kernelRig struct {
	in, out, want []byte
}

func newKernelRig() *kernelRig {
	n := cornerLengths[len(cornerLengths)-1] + 31 + 2*guard
	return &kernelRig{in: make([]byte, n), out: make([]byte, n), want: make([]byte, n)}
}

// check runs all three kernels on length bytes starting inOff into the
// input buffer and guard+outOff into the output buffer, and compares the
// whole output buffer — result and the bytes on both sides of it —
// with the oracle's.
func (r *kernelRig) check(t *testing.T, c byte, inOff, outOff, length int) {
	t.Helper()
	in := r.in[inOff : inOff+length]
	lo := guard + outOff
	span := lo + length + guard
	for i := range in {
		in[i] = byte(i*37 + 11 + int(c))
	}
	for _, k := range sliceKernels(c) {
		for i := 0; i < span; i++ {
			r.out[i] = byte(i*13 + 5)
		}
		copy(r.want[:span], r.out[:span])
		for i, v := range in {
			r.want[lo+i] = k.ref(v, r.want[lo+i])
		}
		k.run(in, r.out[lo:lo+length])
		if !bytes.Equal(r.out[:span], r.want[:span]) {
			for i := 0; i < span; i++ {
				if r.out[i] != r.want[i] {
					t.Fatalf("%s c=%#x len=%d inOff=%d outOff=%d: byte %d (result starts at %d) = %#x, want %#x",
						k.name, c, length, inOff, outOff, i, lo, r.out[i], r.want[i])
				}
			}
		}
	}
}

func TestSliceKernelsEveryCoefficientAndLength(t *testing.T) {
	r := newKernelRig()
	lengths := append([]int{}, cornerLengths...)
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	for _, length := range lengths {
		for c := 0; c < 256; c++ {
			// Offsets walk all 32 values of each side as c and length run.
			r.check(t, byte(c), (c+length)%32, (c/8+3*length)%32, length)
		}
	}
}

func TestSliceKernelsEveryOffsetPair(t *testing.T) {
	// Unaligned loads and stores: every in/out start offset within a
	// 32-byte block, at lengths around one, two and three blocks and the
	// 344-byte shard.
	r := newKernelRig()
	for _, length := range []int{0, 1, 31, 32, 33, 63, 64, 65, 95, 96, 97, 130, 344} {
		for inOff := 0; inOff < 32; inOff++ {
			for outOff := 0; outOff < 32; outOff++ {
				for _, c := range []byte{2, 0x53, 0xFF} {
					r.check(t, c, inOff, outOff, length)
				}
			}
		}
	}
}

func TestSliceKernelsExactSelfAlias(t *testing.T) {
	// out == in is the documented aliasing case, and what Matrix.Invert
	// does to scale a row: MulSlice(c, row, row) multiplies in place,
	// MulAddSlice(c, row, row) multiplies in place by c^1, AddSlice(row,
	// row) clears.
	for length := 1; length <= 100; length++ {
		row := make([]byte, length)
		orig := make([]byte, length)
		for i := range orig {
			orig[i] = byte(i*19 + 5)
		}
		for c := 0; c < 256; c++ {
			copy(row, orig)
			MulSlice(byte(c), row, row)
			for i, v := range orig {
				if row[i] != Mul(byte(c), v) {
					t.Fatalf("MulSlice(%#x, row, row) len=%d byte %d = %#x, want %#x", c, length, i, row[i], Mul(byte(c), v))
				}
			}
			copy(row, orig)
			MulAddSlice(byte(c), row, row)
			for i, v := range orig {
				if row[i] != Mul(byte(c)^1, v) {
					t.Fatalf("MulAddSlice(%#x, row, row) len=%d byte %d = %#x, want %#x", c, length, i, row[i], Mul(byte(c)^1, v))
				}
			}
		}
		copy(row, orig)
		AddSlice(row, row)
		if !bytes.Equal(row, make([]byte, length)) {
			t.Fatalf("AddSlice(row, row) len=%d left %v", length, row)
		}
	}
}

func FuzzSliceKernels(f *testing.F) {
	for i, n := range append([]int{0, 1, 31, 32, 33, 64, 65, 130}, cornerLengths[:4]...) {
		in := make([]byte, n)
		for j := range in {
			in[j] = byte(j*31 + i)
		}
		f.Add(byte(0x53+i), in, bytes.Repeat([]byte{byte(i)}, n))
	}
	f.Add(byte(0), []byte("abc"), []byte("defgh"))
	f.Add(byte(1), []byte("abcdefgh"), []byte("xyz"))
	f.Fuzz(func(t *testing.T, c byte, in, out []byte) {
		// The kernels demand equal lengths: cut both to the shorter.
		n := min(len(in), len(out))
		in, out = in[:n], out[:n]
		for _, k := range sliceKernels(c) {
			got := bytes.Clone(out)
			want := make([]byte, n)
			for i := range want {
				want[i] = k.ref(in[i], out[i])
			}
			k.run(in, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s c=%#x len=%d: got %x want %x", k.name, c, n, got, want)
			}
		}
	})
}
