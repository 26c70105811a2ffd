package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestRandomGeometriesAndErasures drives the code through randomized
// (k, m) geometries, value sizes, and erasure patterns — the
// exhaustive-pattern test's big sibling.
func TestRandomGeometriesAndErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.Intn(9)
		m := 1 + rng.Intn(4)
		code := mustRSVan(t, k, m)
		size := 1 + rng.Intn(8000)
		value := make([]byte, size)
		rng.Read(value)

		shards := Split(value, k, m)
		if err := code.Encode(shards); err != nil {
			t.Fatalf("trial %d k=%d m=%d: encode: %v", trial, k, m, err)
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
			t.Fatalf("trial %d k=%d m=%d erase=%v: %v", trial, k, m, perm[:erase], err)
		}
		got, err := Join(work, k, size)
		if err != nil {
			t.Fatalf("trial %d: join: %v", trial, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("trial %d k=%d m=%d erase=%v: data differs", trial, k, m, perm[:erase])
		}
		// Verify must hold on the repaired stripe.
		if ok, err := code.Verify(work); err != nil || !ok {
			t.Fatalf("trial %d: verify after reconstruct: %v %v", trial, ok, err)
		}
	}
}

// TestCodesAgreeOnDataChunks checks the invariant all systematic codes
// share: encoding leaves the data chunks identical to the split input.
func TestCodesAgreeOnDataChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	value := make([]byte, 5000)
	rng.Read(value)
	ref := Split(value, 3, 2)
	code := mustRSVan(t, 3, 2)
	shards := Split(value, 3, 2)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(shards[i], ref[i]) {
			t.Fatalf("%s modified data chunk %d (not systematic)", code.Name(), i)
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
	code := mustRSVan(t, 3, 2)
	shards := Split(value, 3, 2)
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

// TestDeterministicEncoding: encoding the same data twice must give
// identical parity (no hidden randomness).
func TestDeterministicEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	value := make([]byte, 2048)
	rng.Read(value)
	code := mustRSVan(t, 4, 2)
	a := Split(value, 4, 2)
	b := Split(value, 4, 2)
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

// TestSingleByteValues: the smallest possible values survive the full
// pipeline in every geometry.
func TestSingleByteValues(t *testing.T) {
	for k := 1; k <= 5; k++ {
		rs, err := NewRSVan(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		shards := Split([]byte{0xA5}, k, 2)
		if err := rs.Encode(shards); err != nil {
			t.Fatal(err)
		}
		shards[0] = nil
		if k > 1 {
			shards[1] = nil
		}
		if err := rs.Reconstruct(shards); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got, err := Join(shards, k, 1)
		if err != nil || len(got) != 1 || got[0] != 0xA5 {
			t.Fatalf("k=%d: got %v, %v", k, got, err)
		}
	}
}
