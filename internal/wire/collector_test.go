package wire

import (
	"testing"

	"ecstore/internal/erasure"
)

// addChunk adds chunk idx of stripe with a one-byte body, reporting the
// stripe ID as its TTL so tests can tell whose TTL a group kept.
func addChunk(c *ChunkCollector, stripe uint64, idx int, body byte) {
	c.Add(ECMeta{ChunkIndex: uint8(idx), K: 3, M: 2, TotalLen: 10, Stripe: stripe}, []byte{body}, uint32(stripe))
}

func TestCollectorSingleStripe(t *testing.T) {
	c := NewChunkCollector(3, 5)
	if c.Best() != nil {
		t.Fatal("empty collector decodable")
	}
	addChunk(&c, 7, 0, 'a')
	addChunk(&c, 7, 1, 'b')
	if c.Best() != nil {
		t.Fatal("2 of 3 chunks decodable")
	}
	addChunk(&c, 7, 4, 'e')
	win := c.Best()
	if win == nil {
		t.Fatal("3 chunks not decodable")
	}
	if win.Stripe != 7 || win.TotalLen != 10 || win.TTL != 7 {
		t.Fatalf("Best = %+v", win)
	}
	if chunks := win.Chunks(); len(chunks) != 5 || chunks[0] == nil || chunks[1] == nil || chunks[4] == nil || chunks[2] != nil {
		t.Fatalf("chunk layout wrong: %v", chunks)
	}
	if c.Seen() != 3 {
		t.Fatalf("Seen = %d", c.Seen())
	}
}

func TestCollectorPrefersMostCompleteStripe(t *testing.T) {
	c := NewChunkCollector(3, 5)
	// Old stripe (id 100) has 4 chunks; new stripe (id 200) has 3.
	for i := 0; i < 4; i++ {
		addChunk(&c, 100, i, 'o')
	}
	for i := 0; i < 3; i++ {
		addChunk(&c, 200, i, 'n')
	}
	if win := c.Best(); win == nil || win.Stripe != 100 || win.TTL != 100 {
		t.Fatalf("Best = %+v, want the more complete stripe 100 with its own TTL", win)
	}
}

func TestCollectorTieBreaksToNewerStripe(t *testing.T) {
	c := NewChunkCollector(3, 5)
	for i := 0; i < 3; i++ {
		addChunk(&c, 100, i, 'o')
		addChunk(&c, 200, i, 'n')
	}
	if win := c.Best(); win == nil || win.Stripe != 200 || win.TTL != 200 {
		t.Fatalf("Best = %+v, want the newer stripe 200 on a tie, with its own TTL", win)
	}
}

func TestCollectorNoDecodableStripe(t *testing.T) {
	c := NewChunkCollector(3, 5)
	// Two chunks each of two stripes: 4 chunks total but no stripe
	// reaches K = 3 — the torn state grouped decoding must reject.
	addChunk(&c, 100, 0, 'o')
	addChunk(&c, 100, 1, 'o')
	addChunk(&c, 200, 2, 'n')
	addChunk(&c, 200, 3, 'n')
	if win := c.Best(); win != nil {
		t.Fatalf("Best returned a group below K: %+v", win)
	}
	if c.Seen() != 4 {
		t.Fatalf("Seen = %d", c.Seen())
	}
	if !c.Holds(1) || !c.Holds(3) || c.Holds(4) {
		t.Fatalf("Holds = %v %v %v, want chunks 1 and 3 of either stripe, not 4", c.Holds(1), c.Holds(3), c.Holds(4))
	}
}

func TestCollectorIgnoresDuplicatesAndBadIndexes(t *testing.T) {
	c := NewChunkCollector(3, 5)
	addChunk(&c, 1, 0, 'a')
	// Duplicate index: the first chunk wins, and so does the TTL its
	// holder reported.
	c.Add(ECMeta{ChunkIndex: 0, K: 3, M: 2, TotalLen: 10, Stripe: 1}, []byte{'X'}, 99)
	c.Add(ECMeta{ChunkIndex: 9, K: 3, M: 2, Stripe: 1}, []byte{'z'}, 99) // out of range
	c.Add(ECMeta{ChunkIndex: 3, K: 7, M: 2, Stripe: 1}, []byte{'k'}, 99) // another K
	c.Add(ECMeta{ChunkIndex: 3, K: 3, M: 1, Stripe: 1}, []byte{'m'}, 99) // another M
	if c.Seen() != 1 {
		t.Fatalf("Seen = %d", c.Seen())
	}
	addChunk(&c, 1, 1, 'b')
	addChunk(&c, 1, 2, 'c')
	win := c.Best()
	if win == nil || win.Chunks()[0][0] != 'a' || win.TTL != 1 {
		t.Fatalf("duplicate overwrote original: %+v", win)
	}
}

// TestCollectorIsACopyableValue: a collector keeps its first stripe's
// chunks inside itself and hands slices out on request, so copying one
// (core's probe returns its gather by value) yields an independent
// collector, collecting a quiet key allocates nothing, and a geometry
// wider than the inline room spills to the heap and still works.
func TestCollectorIsACopyableValue(t *testing.T) {
	c := NewChunkCollector(3, 5)
	addChunk(&c, 7, 0, 'a')
	addChunk(&c, 7, 1, 'b')
	d := c // copies the inline chunks with it
	addChunk(&c, 7, 2, 'c')
	if d.Best() != nil || d.Seen() != 2 {
		t.Fatalf("the copy saw a chunk added to the original: Seen = %d", d.Seen())
	}
	addChunk(&d, 7, 4, 'e')
	if win := c.Best(); win == nil || win.Chunks()[4] != nil || win.Chunks()[2][0] != 'c' {
		t.Fatalf("the original saw a chunk added to the copy: %+v", win)
	}
	// Reconstruction writes the missing chunks into the slice it is
	// handed; the group must keep them.
	win := d.Best()
	win.Chunks()[2] = []byte{'r'}
	if got := d.Best().Chunks()[2]; len(got) != 1 || got[0] != 'r' {
		t.Fatalf("a write through Chunks() was lost: %q", got)
	}

	chunk := []byte{'x'}
	if n := testing.AllocsPerRun(100, func() {
		q := NewChunkCollector(3, 5)
		for i := 0; i < 3; i++ {
			q.Add(ECMeta{ChunkIndex: uint8(i), K: 3, M: 2, Stripe: 9}, chunk, 0)
		}
		if q.Best() == nil {
			t.Fatal("3 chunks not decodable")
		}
	}); n != 0 {
		t.Errorf("collecting one stripe of 5 allocates %.0f times, want 0", n)
	}

	wide := NewChunkCollector(10, 14)
	for i := 0; i < 10; i++ {
		wide.Add(ECMeta{ChunkIndex: uint8(i + 2), K: 10, M: 4, Stripe: 3}, chunk, 0)
	}
	if win := wide.Best(); win == nil || len(win.Chunks()) != 14 || win.Chunks()[0] != nil || win.Chunks()[11] == nil {
		t.Fatalf("wide stripe: %+v", win)
	}
}

// TestNextRound pins the one rule for which chunk positions a read asks:
// K in the first round, around skipped holders unless K <= M; then what
// the fullest stripe lacks, skipped holders last; then every position
// left.
func TestNextRound(t *testing.T) {
	set := func(positions ...int) (s erasure.ShardSet) {
		for _, i := range positions {
			s.Add(i)
		}
		return s
	}
	cases := []struct {
		name        string
		k, m        int
		asked, skip erasure.ShardSet
		held        []int // positions that returned a chunk of one stripe
		want        erasure.ShardSet
	}{
		{"first round", 3, 2, set(), set(), nil, set(0, 1, 2)},
		{"first round around a data holder", 3, 2, set(), set(0), nil, set(1, 2, 3)},
		{"first round around a data and a parity holder", 3, 2, set(), set(0, 3), nil, set(1, 2, 4)},
		{"first round around a parity holder", 3, 2, set(), set(4), nil, set(0, 1, 2)},
		{"first round with every holder skipped", 3, 2, set(), set(0, 1, 2, 3, 4), nil, set(0, 1, 2)},
		{"first round at K <= M", 2, 2, set(), set(0), nil, set(0, 1)},
		{"second round", 3, 2, set(0, 1, 2), set(), []int{1, 2}, set(3)},
		{"second round around a parity holder", 3, 2, set(0, 1, 2), set(3), []int{1, 2}, set(4)},
		{"second round after a substituted first", 3, 2, set(1, 2, 3), set(0), []int{1, 2}, set(4)},
		{"second round short of more than is left", 3, 2, set(0, 1, 2), set(), nil, set(3, 4)},
		{"second round at K <= M", 2, 2, set(0, 1), set(3), []int{0}, set(2, 3)},
		{"last round", 3, 2, set(1, 2, 3, 4), set(0), []int{1, 2}, set(0)},
		{"decodable", 3, 2, set(0, 1, 2), set(), []int{0, 1, 2}, set()},
	}
	for _, tc := range cases {
		c := NewChunkCollector(tc.k, tc.k+tc.m)
		for _, i := range tc.held {
			c.Add(ECMeta{ChunkIndex: uint8(i), K: uint8(tc.k), M: uint8(tc.m), Stripe: 1}, []byte{'x'}, 0)
		}
		if got := c.NextRound(tc.asked, tc.skip); got != tc.want {
			t.Errorf("%s: NextRound = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestNewStripeIDMonotoneAndUnique(t *testing.T) {
	seen := make(map[uint64]bool, 1000)
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		id := NewStripeID()
		if seen[id] {
			t.Fatalf("duplicate stripe id %d", id)
		}
		seen[id] = true
		if id < prev {
			// Counter wrap within one nanosecond tick can reorder
			// slightly; large regressions indicate breakage.
			if prev-id > 1<<12 {
				t.Fatalf("stripe ids regressed: %d after %d", id, prev)
			}
		}
		prev = id
	}
}
