package codes

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ecstore/internal/erasure"
)

// The store's RSVan runs the same table of tests in internal/erasure;
// these are the bit-matrix codes' cases, and the checks of their
// matrices.

// codesUnderTest returns the bit-matrix codes for RS-style (k, m)
// parameters. Liberation is included only when m == 2.
func codesUnderTest(t *testing.T, k, m int) []Code {
	t.Helper()
	crs, err := NewCauchyRS(k, m)
	if err != nil {
		t.Fatal(err)
	}
	codes := []Code{crs}
	if m == 2 {
		lib, err := NewLiberation(k)
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, lib)
	}
	return codes
}

func randValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	rng.Read(v)
	return v
}

func TestEncodeDecodeAllErasurePatterns(t *testing.T) {
	for _, km := range [][2]int{{3, 2}, {4, 2}, {6, 3}, {2, 1}, {1, 2}} {
		k, m := km[0], km[1]
		for _, code := range codesUnderTest(t, k, m) {
			t.Run(fmt.Sprintf("%s_%d_%d", code.Name(), k, m), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				value := randValue(rng, 1000)
				shards := erasure.Split(value, k, m)
				if err := code.Encode(shards); err != nil {
					t.Fatal(err)
				}
				ok, err := code.Verify(shards)
				if err != nil || !ok {
					t.Fatalf("Verify after Encode: ok=%v err=%v", ok, err)
				}
				// Erase every subset of up to m shards and reconstruct.
				forEachErasure(k+m, m, func(erased []int) {
					work := make([][]byte, len(shards))
					for i, s := range shards {
						work[i] = append([]byte(nil), s...)
					}
					for _, e := range erased {
						work[e] = nil
					}
					if err := code.Reconstruct(work); err != nil {
						t.Fatalf("erased %v: %v", erased, err)
					}
					for i := range shards {
						if !bytes.Equal(work[i], shards[i]) {
							t.Fatalf("erased %v: shard %d differs after reconstruct", erased, i)
						}
					}
					got, err := erasure.Join(work, k, len(value))
					if err != nil {
						t.Fatalf("erased %v: join: %v", erased, err)
					}
					if !bytes.Equal(got, value) {
						t.Fatalf("erased %v: value differs after join", erased)
					}
				})
			})
		}
	}
}

// forEachErasure calls fn with every subset of {0..n-1} of size 1..maxErased.
func forEachErasure(n, maxErased int, fn func([]int)) {
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			fn(append([]int(nil), cur...))
		}
		if len(cur) == maxErased {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
}

func TestTooManyErasures(t *testing.T) {
	for _, code := range codesUnderTest(t, 3, 2) {
		value := make([]byte, 100)
		shards := erasure.Split(value, 3, 2)
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		shards[0], shards[1], shards[2] = nil, nil, nil
		if err := code.Reconstruct(shards); !errors.Is(err, erasure.ErrTooFewShards) {
			t.Errorf("%s: got err %v, want ErrTooFewShards", code.Name(), err)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	for _, code := range codesUnderTest(t, 3, 2) {
		rng := rand.New(rand.NewSource(9))
		shards := erasure.Split(randValue(rng, 500), 3, 2)
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		shards[1][7] ^= 0xFF
		ok, err := code.Verify(shards)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("%s: Verify did not detect corruption", code.Name())
		}
	}
}

func TestEncodeRejectsBadShards(t *testing.T) {
	for _, code := range codesUnderTest(t, 3, 2) {
		// Wrong count.
		if err := code.Encode(make([][]byte, 4)); !errors.Is(err, erasure.ErrShardCount) {
			t.Errorf("%s count: got %v", code.Name(), err)
		}
		// Nil data shard.
		shards := erasure.Split(make([]byte, 64), 3, 2)
		shards[1] = nil
		if err := code.Encode(shards); !errors.Is(err, erasure.ErrShardSize) {
			t.Errorf("%s nil data: got %v", code.Name(), err)
		}
		// Unequal sizes.
		shards = erasure.Split(make([]byte, 64), 3, 2)
		shards[2] = shards[2][:8]
		if err := code.Encode(shards); !errors.Is(err, erasure.ErrShardSize) {
			t.Errorf("%s unequal: got %v", code.Name(), err)
		}
	}
}

func TestBadParameters(t *testing.T) {
	if _, err := NewCauchyRS(0, 1); err == nil {
		t.Error("NewCauchyRS(0,1) succeeded")
	}
	if _, err := NewCauchyRS(200, 100); err == nil {
		t.Error("NewCauchyRS(200,100) succeeded")
	}
	if _, err := NewLiberation(0); err == nil {
		t.Error("NewLiberation(0) succeeded")
	}
}

func TestReconstructParityOnly(t *testing.T) {
	for _, code := range codesUnderTest(t, 3, 2) {
		rng := rand.New(rand.NewSource(3))
		shards := erasure.Split(randValue(rng, 200), 3, 2)
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		want4 := append([]byte(nil), shards[4]...)
		shards[4] = nil
		if err := code.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(shards[4], want4) {
			t.Errorf("%s: reconstructed parity differs", code.Name())
		}
	}
}

// TestRandomGeometriesAndErasures drives every code through randomized
// (k, m) geometries, value sizes, and erasure patterns — the
// exhaustive-pattern test's big sibling.
func TestRandomGeometriesAndErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.Intn(9)
		m := 1 + rng.Intn(4)
		codes := codesUnderTest(t, k, m)
		size := 1 + rng.Intn(8000)
		value := make([]byte, size)
		rng.Read(value)

		for _, code := range codes {
			shards := erasure.Split(value, k, m)
			if err := code.Encode(shards); err != nil {
				t.Fatalf("trial %d %s k=%d m=%d: encode: %v", trial, code.Name(), k, m, err)
			}
			// Erase a random subset of at most m shards.
			erase := rng.Intn(m + 1)
			perm := rng.Perm(k + m)
			work := make([][]byte, len(shards))
			for i, s := range shards {
				work[i] = append([]byte(nil), s...)
			}
			for _, idx := range perm[:erase] {
				work[idx] = nil
			}
			if err := code.Reconstruct(work); err != nil {
				t.Fatalf("trial %d %s k=%d m=%d erase=%v: %v", trial, code.Name(), k, m, perm[:erase], err)
			}
			got, err := erasure.Join(work, k, size)
			if err != nil {
				t.Fatalf("trial %d %s: join: %v", trial, code.Name(), err)
			}
			if !bytes.Equal(got, value) {
				t.Fatalf("trial %d %s k=%d m=%d erase=%v: data differs", trial, code.Name(), k, m, perm[:erase])
			}
			// Verify must hold on the repaired stripe.
			if ok, err := code.Verify(work); err != nil || !ok {
				t.Fatalf("trial %d %s: verify after reconstruct: %v %v", trial, code.Name(), ok, err)
			}
		}
	}
}

// TestCodesAgreeOnDataChunks checks a cross-code invariant: all
// systematic codes leave the data chunks identical to the split input.
func TestCodesAgreeOnDataChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	value := make([]byte, 5000)
	rng.Read(value)
	ref := erasure.Split(value, 3, 2)
	all, err := All(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range all {
		shards := erasure.Split(value, 3, 2)
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if !bytes.Equal(shards[i], ref[i]) {
				t.Fatalf("%s modified data chunk %d (not systematic)", code.Name(), i)
			}
		}
	}
}

// TestParityDiffersBetweenChunks guards against degenerate generators
// producing identical parity chunks (which would silently halve the
// fault tolerance).
func TestParityDiffersBetweenChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	value := make([]byte, 4096)
	rng.Read(value)
	for _, code := range codesUnderTest(t, 3, 2) {
		shards := erasure.Split(value, 3, 2)
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(shards[3], shards[4]) {
			t.Fatalf("%s produced identical parity chunks", code.Name())
		}
		for i := 0; i < 3; i++ {
			if bytes.Equal(shards[3], shards[i]) || bytes.Equal(shards[4], shards[i]) {
				t.Fatalf("%s parity equals data chunk %d", code.Name(), i)
			}
		}
	}
}

// TestDeterministicEncoding: encoding the same data twice must give
// identical parity (no hidden randomness).
func TestDeterministicEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	value := make([]byte, 2048)
	rng.Read(value)
	for _, code := range codesUnderTest(t, 4, 2) {
		a := erasure.Split(value, 4, 2)
		b := erasure.Split(value, 4, 2)
		if err := code.Encode(a); err != nil {
			t.Fatal(err)
		}
		if err := code.Encode(b); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: shard %d differs between encodes", code.Name(), i)
			}
		}
	}
}

func TestCauchyAllSubmatricesInvertible(t *testing.T) {
	// Every square submatrix of a Cauchy matrix is invertible; spot
	// check 2x2 submatrices of a 4x4.
	c := Cauchy(4, 4)
	for r1 := 0; r1 < 4; r1++ {
		for r2 := r1 + 1; r2 < 4; r2++ {
			sub := erasure.NewMatrix(2, 2)
			sub.Set(0, 0, c.At(r1, 0))
			sub.Set(0, 1, c.At(r1, 1))
			sub.Set(1, 0, c.At(r2, 0))
			sub.Set(1, 1, c.At(r2, 1))
			if _, err := sub.Invert(); err != nil {
				t.Fatalf("rows (%d,%d): %v", r1, r2, err)
			}
		}
	}
}

func TestBitMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(24)
		m := NewBitMatrix(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				m.Set(r, c, byte(rng.Intn(2)))
			}
		}
		inv, err := m.Invert()
		if errors.Is(err, erasure.ErrSingular) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Check M * M^-1 = I over GF(2).
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				var sum byte
				for k := 0; k < n; k++ {
					sum ^= m.At(r, k) & inv.At(k, c)
				}
				want := byte(0)
				if r == c {
					want = 1
				}
				if sum != want {
					t.Fatalf("trial %d: product differs at (%d,%d)", trial, r, c)
				}
			}
		}
	}
}

func TestSetBlockIsMultiplyMap(t *testing.T) {
	// The 8x8 block for element e must map the bit vector of x to the
	// bit vector of e*x for every x.
	m := NewBitMatrix(8, 8)
	for _, e := range []byte{0, 1, 2, 0x53, 0xFF} {
		m.SetBlock(0, 0, e)
		for x := 0; x < 256; x++ {
			var out byte
			for r := 0; r < 8; r++ {
				var bit byte
				for c := 0; c < 8; c++ {
					bit ^= m.At(r, c) & byte(x>>c)
				}
				out |= (bit & 1) << r
			}
			if want := mulRef(e, byte(x)); out != want {
				t.Fatalf("e=%#x x=%#x: block gives %#x, want %#x", e, x, out, want)
			}
		}
	}
}

// mulRef recomputes GF(2^8) multiplication independently of gf256 to
// cross-check the block construction.
func mulRef(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= 0x1D
		}
		b >>= 1
	}
	return p
}
