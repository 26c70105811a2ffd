package wire

import (
	"reflect"
	"strings"
	"testing"
)

func TestScanCursorRoundtrip(t *testing.T) {
	for _, c := range []ScanCursor{
		{},
		{Shard: 3, After: "some-key"},
		{Shard: 0xFFFF, After: strings.Repeat("k", MaxKeyLen)},
		{Shard: 7, After: "key\x00c3"}, // chunk keys are valid cursor positions
	} {
		got, err := DecodeScanCursor(EncodeScanCursor(c))
		if err != nil {
			t.Fatalf("cursor %+v: %v", c, err)
		}
		if got != c {
			t.Fatalf("cursor roundtrip: got %+v want %+v", got, c)
		}
	}
}

func TestScanCursorEmptyIsZero(t *testing.T) {
	c, err := DecodeScanCursor(nil)
	if err != nil || c != (ScanCursor{}) {
		t.Fatalf("empty cursor: %+v, %v", c, err)
	}
}

func TestScanCursorMalformed(t *testing.T) {
	for _, b := range [][]byte{
		{1, 2, 3},                    // too short
		{0, 0, 0, 1, 0, 5},           // afterLen overruns
		{0, 0, 0, 1, 0, 1, 'a', 'b'}, // trailing bytes
	} {
		if _, err := DecodeScanCursor(b); err == nil {
			t.Fatalf("decoded malformed cursor % x", b)
		}
	}
}

func TestScanPageRoundtrip(t *testing.T) {
	for _, p := range []ScanPage{
		{},
		{Keys: []string{"a"}},
		{Keys: []string{"a", "b\x00c0", strings.Repeat("x", MaxKeyLen)}},
		{Keys: []string{"k1", "k2"}, Next: EncodeScanCursor(ScanCursor{Shard: 2, After: "k2"})},
		{Next: []byte{0, 0, 0, 0, 0, 0}},
	} {
		got, err := DecodeScanPage(EncodeScanPage(p))
		if err != nil {
			t.Fatalf("page %+v: %v", p, err)
		}
		if len(got.Keys) != len(p.Keys) || (len(p.Keys) > 0 && !reflect.DeepEqual(got.Keys, p.Keys)) {
			t.Fatalf("page keys roundtrip: got %q want %q", got.Keys, p.Keys)
		}
		if string(got.Next) != string(p.Next) {
			t.Fatalf("page next roundtrip: got %q want %q", got.Next, p.Next)
		}
	}
}

func TestScanPageMalformed(t *testing.T) {
	good := EncodeScanPage(ScanPage{Keys: []string{"alpha", "beta"}})
	for name, b := range map[string][]byte{
		"empty":          {},
		"short":          {0, 0, 0},
		"truncated-keys": good[:len(good)-3],
		"trailing":       append(append([]byte{}, good...), 0xEE),
		"cursor-overrun": {0, 40, 0, 0, 0, 0},
	} {
		if _, err := DecodeScanPage(b); err == nil {
			t.Fatalf("%s: decoded malformed page % x", name, b)
		}
	}
}

func TestLogicalKey(t *testing.T) {
	for _, tc := range []struct {
		stored  string
		key     string
		isChunk bool
	}{
		{"plain", "plain", false},
		{"k\x00c0", "k", true},
		{"k\x00c12", "k", true},
		{ChunkKey("user:42", 4), "user:42", true},
		{"k\x00c", "k\x00c", false},                         // no index digits
		{"k\x00cx", "k\x00cx", false},                       // non-digit index
		{"weird\x00key", "weird\x00key", false},             // NUL without chunk marker
		{ChunkKey("nested\x00c1", 2), "nested\x00c1", true}, // LastIndex picks the real suffix
	} {
		key, isChunk := LogicalKey(tc.stored)
		if key != tc.key || isChunk != tc.isChunk {
			t.Errorf("LogicalKey(%q) = %q,%v want %q,%v", tc.stored, key, isChunk, tc.key, tc.isChunk)
		}
	}
}

func TestChunkKeyLogicalKeyInverse(t *testing.T) {
	for idx := 0; idx < 20; idx++ {
		stored := ChunkKey("the-key", idx)
		key, isChunk := LogicalKey(stored)
		if !isChunk || key != "the-key" {
			t.Fatalf("LogicalKey(ChunkKey(the-key,%d)) = %q,%v", idx, key, isChunk)
		}
	}
}

// TestChunkKeyFormat pins the derived-key format — stored data is
// addressed by it, so it may never drift — and that the chunk field of a
// request writes the same key as the one-at-a-time form, for every index
// width, without allocating.
func TestChunkKeyFormat(t *testing.T) {
	if got := ChunkKey("user:42", 3); got != "user:42\x00c3" {
		t.Fatalf("ChunkKey = %q", got)
	}
	for idx := 0; idx < 256; idx++ {
		c := ChunkOf(idx)
		want := ChunkKey("k", idx)
		if got := string(c.appendKey(nil, "k")); got != want {
			t.Fatalf("chunk field %d writes %q, want %q", idx, got, want)
		}
		if got := c.keyLen("k"); got != len(want) {
			t.Fatalf("chunk field %d counts %d key bytes, want %d", idx, got, len(want))
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { ChunkOf(4).appendKey(buf[:0], "some-user-key") }); n != 0 {
		t.Errorf("writing a chunk key allocates %.0f times, want 0", n)
	}
}
