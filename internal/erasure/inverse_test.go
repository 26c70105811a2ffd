package erasure

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"ecstore/internal/bufpool"
)

// lossPatterns returns every set of at most m of the n shard positions.
func lossPatterns(n, m int) [][]int {
	var out [][]int
	for mask := 0; mask < 1<<n; mask++ {
		if bits.OnesCount(uint(mask)) > m {
			continue
		}
		var lost []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				lost = append(lost, i)
			}
		}
		out = append(out, lost)
	}
	return out
}

// erase returns a copy of the shard slice with the lost positions nil.
func erase(shards [][]byte, lost []int) [][]byte {
	work := make([][]byte, len(shards))
	copy(work, shards)
	for _, i := range lost {
		work[i] = nil
	}
	return work
}

// freshData is the reference decode: the data shards as the product of
// an inverse computed now, from the first k shards that survive.
func freshData(t *testing.T, code *RSVan, shards [][]byte, lost []int) [][]byte {
	t.Helper()
	k := code.K()
	var rows []int
	var srcs [][]byte
	for i, s := range erase(shards, lost) {
		if s != nil && len(rows) < k {
			rows = append(rows, i)
			srcs = append(srcs, s)
		}
	}
	dec, err := code.gen.SubMatrix(rows).Invert()
	if err != nil {
		t.Fatal(err)
	}
	return wholeProduct(matrixRows(dec, 0, k, k), srcs)
}

func binomial(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// TestCachedInverseMatchesFresh decodes every loss pattern of at most M
// shards twice — the first call inverts and stores, the second reads the
// stored matrix — through ReconstructData and Reconstruct, each on a code
// of its own, and checks both against a freshly computed inverse. RS(12,4)
// has C(16,12) = 1820 source-row sets, past maxInverses: its later
// patterns take the compute-and-do-not-store path. Afterwards the cache
// holds one inverse per source-row set that can miss data (all but
// [0, K)), up to the bound.
func TestCachedInverseMatchesFresh(t *testing.T) {
	for _, km := range [][2]int{{3, 2}, {4, 2}, {6, 3}, {10, 4}, {12, 4}} {
		k, m := km[0], km[1]
		n := k + m
		ref, err := NewRSVan(k, m)
		if err != nil {
			t.Fatal(err)
		}
		shards := Split(randValue(rand.New(rand.NewSource(int64(n))), 97*k), k, m)
		if err := ref.Encode(shards); err != nil {
			t.Fatal(err)
		}
		patterns := lossPatterns(n, m)
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("rs_%d_%d/full=%v", k, m, full), func(t *testing.T) {
				code, err := NewRSVan(k, m)
				if err != nil {
					t.Fatal(err)
				}
				for _, lost := range patterns {
					want := freshData(t, code, shards, lost)
					for call := 1; call <= 2; call++ {
						work := erase(shards, lost)
						if full {
							err = code.Reconstruct(work)
						} else {
							err = code.ReconstructData(work)
						}
						if err != nil {
							t.Fatalf("lost %v, call %d: %v", lost, call, err)
						}
						for i := 0; i < k; i++ {
							if !bytes.Equal(work[i], want[i]) {
								t.Fatalf("lost %v, call %d: data shard %d differs from the fresh inverse's", lost, call, i)
							}
						}
						for i := k; full && i < n; i++ {
							if !bytes.Equal(work[i], shards[i]) {
								t.Fatalf("lost %v, call %d: parity shard %d not recovered", lost, call, i)
							}
						}
					}
				}
				if got, want := len(code.inverses), min(binomial(n, k)-1, maxInverses); got != want {
					t.Errorf("cache holds %d inverses, want %d", got, want)
				}
			})
		}
	}
}

// TestDecoderCacheConcurrent reconstructs every loss pattern of RS(6,3)
// from 8 goroutines on one code, each starting at a different pattern,
// so stores race with lookups and with each other. Run under -race.
func TestDecoderCacheConcurrent(t *testing.T) {
	const k, m = 6, 3
	code, err := NewRSVan(k, m)
	if err != nil {
		t.Fatal(err)
	}
	shards := Split(randValue(rand.New(rand.NewSource(23)), 6<<10), k, m)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	patterns := lossPatterns(k+m, m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for p := range patterns {
				lost := patterns[(p+g*len(patterns)/8)%len(patterns)]
				work := erase(shards, lost)
				if err := code.Reconstruct(work); err != nil {
					t.Errorf("lost %v: %v", lost, err)
					return
				}
				for i := range shards {
					if !bytes.Equal(work[i], shards[i]) {
						t.Errorf("lost %v: shard %d not recovered", lost, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReconstructDataAllocs pins the degraded read's decode: once its
// loss pattern has been inverted, rebuilding one lost data shard of
// RS(3,2) allocates nothing — the inverse is cached, the sources and
// jobs live on the stack, and the rebuilt shard is a pool buffer handed
// back after each call.
func TestReconstructDataAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	pool := bufpool.New()
	code, err := NewRSVan(3, 2, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	shards := Split(randValue(rand.New(rand.NewSource(29)), 64<<10), 3, 2)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	work := make([][]byte, len(shards))
	decode := func() {
		copy(work, shards)
		work[1] = nil
		if err := code.ReconstructData(work); err != nil {
			t.Fatal(err)
		}
		pool.Put(work[1])
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Fatalf("a warmed one-shard decode allocates %.0f objects, want 0", n)
	}
}
