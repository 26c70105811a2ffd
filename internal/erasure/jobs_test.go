package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Figure 4's size range, plus odd lengths that exercise the kernels'
// scalar tails and the shard padding.
var roundTripSizes = []int{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20,
	1023, 4097, 31<<10 + 5, 33<<10 + 1, 1<<20 - 7,
}

// wholeProduct computes the same matrix product the code's segmented
// executor does — out[r] = Σ rows[r][c]·srcs[c] — as ONE runSegment over
// the whole shard: the reference the segment loop must match bit for bit.
func wholeProduct(rows [][]byte, srcs [][]byte) [][]byte {
	size := len(srcs[0])
	jobs := make([]codeJob, len(rows))
	outs := make([][]byte, len(rows))
	for r := range rows {
		outs[r] = make([]byte, size)
		jobs[r] = codeJob{out: outs[r], coeffs: rows[r]}
	}
	runSegment(jobs, srcs, 0, size)
	return outs
}

func matrixRows(m *Matrix, lo, hi, cols int) [][]byte {
	rows := make([][]byte, 0, hi-lo)
	for r := lo; r < hi; r++ {
		rows = append(rows, m.Row(r)[:cols])
	}
	return rows
}

// encodeMatchesWhole encodes shards (data filled, parity nil) and checks
// every parity shard against the whole-shard product.
func encodeMatchesWhole(t *testing.T, code *RSVan, shards [][]byte) {
	t.Helper()
	k := code.K()
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	for r, want := range wholeProduct(matrixRows(code.gen, k, k+code.M(), k), shards[:k]) {
		if !bytes.Equal(shards[k+r], want) {
			t.Fatalf("size=%d: parity shard %d differs between segmented and whole-shard encode", len(want), k+r)
		}
	}
}

// decodeMatchesWhole erases the given shards of an encoded stripe and
// checks what Reconstruct and ReconstructData rebuild against the decode
// matrix applied as whole-shard products.
func decodeMatchesWhole(t *testing.T, code *RSVan, shards [][]byte, erased []int) {
	t.Helper()
	k := code.K()
	mk := func() [][]byte {
		work := make([][]byte, len(shards))
		copy(work, shards)
		for _, e := range erased {
			work[e] = nil
		}
		return work
	}
	// The reference: the decode matrix over the first k survivors.
	var rows []int
	var srcs [][]byte
	for i, s := range mk() {
		if s != nil && len(rows) < k {
			rows = append(rows, i)
			srcs = append(srcs, s)
		}
	}
	dec, err := code.gen.SubMatrix(rows).Invert()
	if err != nil {
		t.Fatal(err)
	}
	wantData := wholeProduct(matrixRows(dec, 0, k, k), srcs)

	full, dataOnly := mk(), mk()
	if err := code.Reconstruct(full); err != nil {
		t.Fatalf("size=%d erased=%v: %v", len(shards[0]), erased, err)
	}
	if err := code.ReconstructData(dataOnly); err != nil {
		t.Fatalf("size=%d erased=%v: %v", len(shards[0]), erased, err)
	}
	for i := range shards {
		if !bytes.Equal(full[i], shards[i]) {
			t.Fatalf("size=%d erased=%v: shard %d not recovered", len(shards[0]), erased, i)
		}
		if i < k && (!bytes.Equal(full[i], wantData[i]) || !bytes.Equal(dataOnly[i], wantData[i])) {
			t.Fatalf("size=%d erased=%v: data shard %d differs between segmented and whole-shard decode", len(shards[0]), erased, i)
		}
	}
}

// The two tests below keep the names the serial-vs-parallel pair had:
// what they pin is the same property with the thread fan-out gone —
// cutting the shards into segments changes no byte of the result.

func TestSerialParallelEncodeBitIdentical(t *testing.T) {
	for _, km := range [][2]int{{3, 2}, {4, 2}, {6, 3}} {
		code, err := NewRSVan(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for _, size := range roundTripSizes {
			t.Run(fmt.Sprintf("rs_%d_%d/size=%d", km[0], km[1], size), func(t *testing.T) {
				encodeMatchesWhole(t, code, Split(randValue(rng, size), km[0], km[1]))
			})
		}
	}
}

func TestSerialParallelDecodeBitIdentical(t *testing.T) {
	const k, m = 3, 2
	code, err := NewRSVan(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for _, size := range roundTripSizes {
		shards := Split(randValue(rng, size), k, m)
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		// The worst case (m shards, data first) down to parity only.
		for _, erased := range [][]int{{0, 1}, {0, 3}, {2, 4}, {3, 4}} {
			decodeMatchesWhole(t, code, shards, erased)
		}
	}
}

func TestSegmentedMatchesWholeAtSegmentEdges(t *testing.T) {
	// Shard sizes straddling parallelSegment, byte-exact (Split rounds
	// shards to 8 bytes, so these are built by hand): the last segment is
	// one byte, absent, a full one, or a ragged seven.
	const k, m = 3, 2
	code, err := NewRSVan(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	for _, size := range []int{
		parallelSegment - 1, parallelSegment, parallelSegment + 1,
		2 * parallelSegment, 10*parallelSegment + 7,
	} {
		shards := make([][]byte, k+m)
		for i := 0; i < k; i++ {
			shards[i] = randValue(rng, size)
		}
		encodeMatchesWhole(t, code, shards)
		for _, erased := range [][]int{{0, 1}, {1, 4}} {
			decodeMatchesWhole(t, code, shards, erased)
		}
	}
}

func TestRoundTripFullRange(t *testing.T) {
	const k, m = 3, 2
	code, err := NewRSVan(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, size := range roundTripSizes {
		value := randValue(rng, size)
		shards := Split(value, k, m)
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		work := make([][]byte, len(shards))
		copy(work, shards)
		work[0], work[2] = nil, nil
		if err := code.Reconstruct(work); err != nil {
			t.Fatal(err)
		}
		got, err := Join(work, k, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("size=%d: encode/decode round trip differs", size)
		}
	}
}

func TestCodecStartsNoGoroutine(t *testing.T) {
	// The codec owns no goroutine (ROADMAP 3(a)): building a code and
	// coding a 1 MB value leaves the process with as many as before.
	before := runtime.NumGoroutine()
	code, err := NewRSVan(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := Split(randValue(rand.New(rand.NewSource(3)), 1<<20), 3, 2)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[0], shards[4] = nil, nil
	if err := code.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after NewRSVan + 1 MB Encode/Reconstruct", before, after)
	}
}

func TestReconstructDataLeavesParityNil(t *testing.T) {
	code, err := NewRSVan(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	value := randValue(rand.New(rand.NewSource(9)), 100<<10)
	shards := Split(value, 3, 2)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	work := make([][]byte, len(shards))
	copy(work, shards)
	work[1] = nil // lost data chunk
	work[4] = nil // lost parity chunk
	if err := code.ReconstructData(work); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(work[1], shards[1]) {
		t.Fatal("data shard not recovered")
	}
	if work[4] != nil {
		t.Fatal("ReconstructData recomputed parity; it should not")
	}
	got, err := Join(work, 3, len(value))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("round trip differs after ReconstructData")
	}
}

func TestReconstructDataHelperFallsBack(t *testing.T) {
	// Codes without a native data-only path must still recover data
	// through the package helper.
	code, err := NewCauchyRS(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	value := randValue(rand.New(rand.NewSource(21)), 64<<10)
	shards := Split(value, 3, 2)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	work := make([][]byte, len(shards))
	copy(work, shards)
	work[0] = nil
	if err := ReconstructData(code, work); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(work[0], shards[0]) {
		t.Fatal("data shard not recovered via helper")
	}
}
