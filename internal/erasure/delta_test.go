package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// applyDeltaToEncoded XOR-applies the sparse runs of every delta shard
// onto the corresponding encoded old-value shard — what the K+M servers
// collectively do during a delta overwrite.
func applyDeltaToEncoded(t testing.TB, oldShards [][]byte, delta *PooledShards, mergeGap int) {
	t.Helper()
	for i, ds := range delta.Shards {
		runs := NonzeroRuns(ds, mergeGap)
		if err := ApplyRuns(oldShards[i], runs); err != nil {
			t.Fatalf("ApplyRuns shard %d: %v", i, err)
		}
	}
}

func encodeValue(t testing.TB, code *RSVan, value []byte) [][]byte {
	t.Helper()
	shards := Split(value, code.K(), code.M())
	if err := code.Encode(shards); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return shards
}

// mutate returns a copy of value with a deterministic edit applied:
// length-preserving, at a given offset span.
func mutate(value []byte, off, span int, rng *rand.Rand) []byte {
	out := append([]byte(nil), value...)
	for i := off; i < off+span && i < len(out); i++ {
		out[i] ^= byte(1 + rng.Intn(255)) // never XOR with 0: the byte must change
	}
	return out
}

// TestEncodeDeltaParity is the core linearity property: applying the
// delta shards (as sparse runs) onto the encoded old value yields
// byte-identical shards to re-encoding the new value — data AND parity.
func TestEncodeDeltaParity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		k, m, size, off, span int
	}{
		{3, 2, 1 << 20, 512, 64},        // paper case: tiny edit in 1 MB
		{3, 2, 1 << 20, 0, 4096},        // edit at the very front
		{3, 2, 1 << 20, 1<<20 - 64, 64}, // edit at the very tail
		{3, 2, 999, 100, 50},            // unaligned size, k does not divide
		{2, 1, 64, 0, 64},               // whole value rewritten
		{4, 3, 8192, 3000, 1},           // single-byte edit spanning shard 1
		{6, 3, 100_000, 33_000, 40_000}, // edit spanning several shards
		{1, 1, 4096, 17, 3},             // k=1 degenerate stripe
		{10, 4, 123_456, 61_000, 8},     // wide stripe
	}
	for _, tc := range cases {
		code, err := NewRSVan(tc.k, tc.m)
		if err != nil {
			t.Fatalf("NewRSVan(%d,%d): %v", tc.k, tc.m, err)
		}
		oldValue := make([]byte, tc.size)
		rng.Read(oldValue)
		newValue := mutate(oldValue, tc.off, tc.span, rng)

		delta, err := EncodeDelta(code, oldValue, newValue, nil)
		if err != nil {
			t.Fatalf("EncodeDelta k=%d m=%d size=%d: %v", tc.k, tc.m, tc.size, err)
		}
		oldShards := encodeValue(t, code, oldValue)
		applyDeltaToEncoded(t, oldShards, delta, 0)
		delta.Release()

		newShards := encodeValue(t, code, newValue)
		for i := range newShards {
			if !bytes.Equal(oldShards[i], newShards[i]) {
				t.Errorf("k=%d m=%d size=%d off=%d span=%d: shard %d differs after delta apply",
					tc.k, tc.m, tc.size, tc.off, tc.span, i)
			}
		}
	}
}

func TestEncodeDeltaShapeMismatch(t *testing.T) {
	code, err := NewRSVan(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 300 -> 400 bytes crosses a shard-size boundary for K=3.
	if _, err := EncodeDelta(code, make([]byte, 300), make([]byte, 400), nil); err == nil {
		t.Fatal("EncodeDelta accepted values with different shard layouts")
	}
	// 97 -> 100: both round to the same aligned shard size; the delta
	// must cover the reshaped tail so the grown value decodes exactly.
	oldValue := make([]byte, 97)
	newValue := make([]byte, 100)
	rand.New(rand.NewSource(7)).Read(oldValue)
	copy(newValue, oldValue)
	newValue[98] = 0xAB
	delta, err := EncodeDelta(code, oldValue, newValue, nil)
	if err != nil {
		t.Fatalf("EncodeDelta same-layout resize: %v", err)
	}
	oldShards := encodeValue(t, code, oldValue)
	applyDeltaToEncoded(t, oldShards, delta, 0)
	delta.Release()
	got, err := Join(oldShards, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newValue) {
		t.Fatal("same-layout resize did not round-trip through the delta")
	}
}

func TestNonzeroRuns(t *testing.T) {
	// All-zero shards produce no runs at all: an untouched shard costs
	// only the patch header on the wire.
	if runs := NonzeroRuns(make([]byte, 4096), 0); len(runs) != 0 {
		t.Fatalf("zero shard produced %d runs", len(runs))
	}
	if runs := NonzeroRuns(nil, 0); len(runs) != 0 {
		t.Fatalf("nil shard produced %d runs", len(runs))
	}

	// Coverage property under random sparse patterns and gap settings:
	// rebuilding a zero shard from the runs reproduces the original.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(5000)
		shard := make([]byte, size)
		for i := 0; i < rng.Intn(20); i++ {
			shard[rng.Intn(size)] = byte(rng.Intn(256)) // may place zeros too
		}
		gap := rng.Intn(64)
		runs := NonzeroRuns(shard, gap)
		rebuilt := make([]byte, size)
		if err := ApplyRuns(rebuilt, runs); err != nil {
			t.Fatalf("ApplyRuns: %v", err)
		}
		if !bytes.Equal(rebuilt, shard) {
			t.Fatalf("trial %d (size=%d gap=%d): runs did not reproduce the shard", trial, size, gap)
		}
		// Runs must be ordered, non-overlapping, and start/end non-zero
		// (no run ever wastes its first or last byte on a zero).
		prevEnd := -1
		for _, r := range runs {
			if r.Offset <= prevEnd {
				t.Fatalf("trial %d: run at %d overlaps or disorders previous end %d", trial, r.Offset, prevEnd)
			}
			if len(r.Data) == 0 || r.Data[0] == 0 || r.Data[len(r.Data)-1] == 0 {
				t.Fatalf("trial %d: run at %d has zero boundary bytes", trial, r.Offset)
			}
			prevEnd = r.Offset + len(r.Data) - 1
		}
	}

	// Merge behaviour: two bytes closer than the gap share one run.
	shard := make([]byte, 100)
	shard[10], shard[20] = 1, 2
	if runs := NonzeroRuns(shard, 16); len(runs) != 1 {
		t.Fatalf("gap-10 bytes with mergeGap=16: got %d runs, want 1", len(runs))
	}
	if runs := NonzeroRuns(shard, 4); len(runs) != 2 {
		t.Fatalf("gap-10 bytes with mergeGap=4: got %d runs, want 2", len(runs))
	}
}

func TestApplyRunsBounds(t *testing.T) {
	shard := make([]byte, 16)
	if err := ApplyRuns(shard, []DeltaRun{{Offset: 10, Data: make([]byte, 7)}}); err == nil {
		t.Fatal("run past the shard end was accepted")
	}
	if err := ApplyRuns(shard, []DeltaRun{{Offset: -1, Data: []byte{1}}}); err == nil {
		t.Fatal("negative offset was accepted")
	}
}

// FuzzDeltaParity fuzzes the end-to-end delta property across K/M,
// value sizes, and arbitrary edits: XOR-applying the sparse delta runs
// onto every encoded old-value chunk must reproduce the re-encoded new
// value byte-identically, and joining the patched data chunks must
// yield the new value.
func FuzzDeltaParity(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte("hello world, this is the old value"), uint16(4), []byte("HELLO"), uint8(0))
	f.Add(uint8(1), uint8(1), []byte{0}, uint16(0), []byte{0xFF}, uint8(1))
	f.Add(uint8(4), uint8(4), bytes.Repeat([]byte{7}, 1000), uint16(999), []byte{1, 2, 3}, uint8(64))
	f.Add(uint8(2), uint8(1), []byte{}, uint16(0), []byte("created"), uint8(8))
	f.Fuzz(func(t *testing.T, k, m uint8, oldValue []byte, editOff uint16, edit []byte, gap uint8) {
		ki, mi := int(k%8)+1, int(m%8)+1
		code, err := NewRSVan(ki, mi)
		if err != nil {
			t.Skip()
		}
		// Build the new value: same length as old (delta requires the
		// same shard layout for most edits), with edit XORed in at
		// editOff, wrapping around. A zero-length old value gets the
		// edit appended instead, exercising the grow-within-one-shard
		// case.
		newValue := append([]byte(nil), oldValue...)
		if len(newValue) == 0 {
			newValue = append(newValue, edit...)
		} else {
			for i, b := range edit {
				newValue[(int(editOff)+i)%len(newValue)] ^= b
			}
		}
		delta, err := EncodeDelta(code, oldValue, newValue, nil)
		if err != nil {
			// Only a genuine layout mismatch may refuse.
			if ShardSize(len(oldValue), ki, 8) == ShardSize(len(newValue), ki, 8) {
				t.Fatalf("EncodeDelta refused same-layout values: %v", err)
			}
			return
		}
		defer delta.Release()

		oldShards := encodeValue(t, code, oldValue)
		applyDeltaToEncoded(t, oldShards, delta, int(gap))
		newShards := encodeValue(t, code, newValue)
		for i := range newShards {
			if !bytes.Equal(oldShards[i], newShards[i]) {
				t.Fatalf("k=%d m=%d len=%d: shard %d differs after delta apply", ki, mi, len(oldValue), i)
			}
		}
		joined, err := Join(oldShards, ki, len(newValue))
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		if !bytes.Equal(joined, newValue) {
			t.Fatal("patched data chunks do not join to the new value")
		}
	})
}
