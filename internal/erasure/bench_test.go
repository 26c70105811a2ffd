package erasure

import (
	"fmt"
	"math/rand"
	"testing"

	"ecstore/internal/bufpool"
)

// Codec benchmarks in benchstat-readable form: sub-benchmarks are
// labelled key=value (size=..., pool=..., mode=...) so that
//
//	go test -bench=EncodeAlloc -benchmem -run='^$' ./internal/erasure | benchstat -col /pool -
//
// lines the pairs up.

var benchSizes = []int{1 << 10, 64 << 10, 256 << 10, 1 << 20}

func benchValue(size int) []byte {
	v := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(v)
	return v
}

func benchCode(b *testing.B, opts ...Option) *RSVan {
	b.Helper()
	code, err := NewRSVan(3, 2, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return code
}

// BenchmarkEncode is RS(3,2) encode across Figure 4's value-size range,
// unpooled so the time is pure coding time.
func BenchmarkEncode(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			code := benchCode(b, WithPool(nil))
			shards := Split(benchValue(size), 3, 2)
			if err := code.Encode(shards); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := code.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReconstruct is decode with the worst-case erasure (two data
// shards lost).
func BenchmarkReconstruct(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			code := benchCode(b, WithPool(nil))
			shards := Split(benchValue(size), 3, 2)
			if err := code.Encode(shards); err != nil {
				b.Fatal(err)
			}
			work := make([][]byte, len(shards))
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, shards)
				work[0], work[1] = nil, nil
				if err := code.ReconstructData(work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeAlloc measures the full per-Set codec cycle — split,
// encode, release — pooled against unpooled. Run with -benchmem: the
// pool=on rows show the allocation win.
func BenchmarkEncodeAlloc(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("pool=off/size=%d", size), func(b *testing.B) {
			code := benchCode(b, WithPool(nil))
			value := benchValue(size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shards := Split(value, 3, 2)
				if err := code.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("pool=on/size=%d", size), func(b *testing.B) {
			pool := bufpool.New()
			code := benchCode(b, WithPool(pool))
			value := benchValue(size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps := SplitPooled(value, 3, 2, pool)
				if err := code.Encode(ps.Shards); err != nil {
					b.Fatal(err)
				}
				ps.Release()
			}
		})
	}
}

// BenchmarkReconstructData isolates the degraded-read fast path: data-only
// reconstruction against full Reconstruct (which also recomputes the
// missing parity shard).
func BenchmarkReconstructData(b *testing.B) {
	const size = 1 << 20
	for _, mode := range []string{"data-only", "full"} {
		b.Run(fmt.Sprintf("mode=%s/size=%d", mode, size), func(b *testing.B) {
			code := benchCode(b)
			shards := Split(benchValue(size), 3, 2)
			if err := code.Encode(shards); err != nil {
				b.Fatal(err)
			}
			work := make([][]byte, len(shards))
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, shards)
				work[1], work[4] = nil, nil
				var err error
				if mode == "data-only" {
					err = code.ReconstructData(work)
				} else {
					err = code.Reconstruct(work)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
