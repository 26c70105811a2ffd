package gf256

import (
	"fmt"
	"testing"
)

// Kernel benchmarks across the shard sizes the erasure codes feed the
// kernels (a 1 MB value with RS(3,2) means ~350 KB slices).

var benchSizes = []int{341, 344, 1 << 10, 64 << 10, 1 << 20}

func benchPair(size int) (in, out []byte) {
	in = make([]byte, size)
	out = make([]byte, size)
	for i := range in {
		in[i] = byte(i*31 + 7)
	}
	return in, out
}

func BenchmarkMulAddSliceSizes(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			in, out := benchPair(size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulAddSlice(0x53, in, out)
			}
		})
	}
}

func BenchmarkMulSliceSizes(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			in, out := benchPair(size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulSlice(0x53, in, out)
			}
		})
	}
}

func BenchmarkAddSliceSizes(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			in, out := benchPair(size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AddSlice(in, out)
			}
		})
	}
}
