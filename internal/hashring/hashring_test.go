package hashring

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func testMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("server-%d", i)
	}
	return out
}

func newTestRing(n int) *Ring { return Build(0, testMembers(n)) }

// primary is key's ring successor: the first member GetN names.
func primary(r *Ring, key string) string { return r.GetN(key, 1)[0] }

func TestEmptyRing(t *testing.T) {
	r := Build(0, nil)
	if got := r.GetN("k", 3); got != nil {
		t.Fatalf("GetN on empty ring = %v", got)
	}
	if got := r.AppendN(nil, "k", 1); got != nil {
		t.Fatalf("AppendN on empty ring = %v", got)
	}
}

func TestGetDeterministic(t *testing.T) {
	r := newTestRing(5)
	a := r.GetN("mykey", 3)
	for i := 0; i < 100; i++ {
		if b := newTestRing(5).GetN("mykey", 3); !slices.Equal(a, b) {
			t.Fatalf("placement not deterministic: %v vs %v", a, b)
		}
	}
}

// TestBuildDeduplicates: a member listed twice counts once.
func TestBuildDeduplicates(t *testing.T) {
	r := Build(0, []string{"s1", "s1"})
	if got := r.GetN("k", 3); !slices.Equal(got, []string{"s1"}) {
		t.Fatalf("GetN on a ring built from a duplicated member = %v", got)
	}
	twice, once := Build(0, []string{"a", "b", "a", "c", "b"}), Build(0, []string{"a", "b", "c"})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a, b := twice.GetN(key, 3), once.GetN(key, 3); !slices.Equal(a, b) {
			t.Fatalf("key %s: duplicates changed the placement: %v vs %v", key, a, b)
		}
	}
}

// TestBuildIgnoresMemberOrder: the placement is the member set's, so
// every party that lists the same servers places every key alike.
func TestBuildIgnoresMemberOrder(t *testing.T) {
	a, b := Build(0, []string{"c", "a", "b"}), Build(0, []string{"a", "b", "c"})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		if pa, pb := a.GetN(key, 3), b.GetN(key, 3); !slices.Equal(pa, pb) {
			t.Fatalf("key %s: member order changed the placement: %v vs %v", key, pa, pb)
		}
	}
}

// TestRemove: a ring built without a member never places a key on it.
func TestRemove(t *testing.T) {
	r := Build(0, []string{"server-0", "server-2"})
	for i := 0; i < 1000; i++ {
		got := r.GetN(fmt.Sprintf("key-%d", i), 3)
		if len(got) != 2 || slices.Contains(got, "server-1") {
			t.Fatalf("placement %v on a ring without server-1", got)
		}
	}
}

func TestGetNDistinctAndPrimaryFirst(t *testing.T) {
	r := newTestRing(5)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		got := r.GetN(key, 5)
		if len(got) != 5 {
			t.Fatalf("GetN returned %d members", len(got))
		}
		if p := primary(r, key); got[0] != p {
			t.Fatalf("GetN[0] = %q, primary = %q", got[0], p)
		}
		seen := map[string]bool{}
		for _, m := range got {
			if seen[m] {
				t.Fatalf("duplicate member %q for key %q", m, key)
			}
			seen[m] = true
		}
	}
}

func TestGetNMoreThanMembers(t *testing.T) {
	r := newTestRing(3)
	got := r.GetN("k", 10)
	if len(got) != 3 {
		t.Fatalf("GetN(10) on 3-member ring returned %d", len(got))
	}
}

func TestGetNZero(t *testing.T) {
	r := newTestRing(3)
	if got := r.GetN("k", 0); got != nil {
		t.Fatalf("GetN(0) = %v", got)
	}
}

func TestRemapFractionOnMemberRemoval(t *testing.T) {
	// Consistent hashing must move only ~1/N of the keys when a
	// member leaves.
	members := testMembers(10)
	r, without := Build(0, members), Build(0, slices.Delete(slices.Clone(members), 3, 4))
	const keys = 5000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := primary(r, key), primary(without, key)
		if after != before {
			moved++
			if before != "server-3" {
				t.Fatalf("key %d moved from %q (not the removed member)", i, before)
			}
		}
	}
	frac := float64(moved) / keys
	if frac > 0.2 {
		t.Fatalf("%.1f%% of keys moved; expected ~10%%", frac*100)
	}
}

func TestLoadBalance(t *testing.T) {
	r := newTestRing(5)
	counts := map[string]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[primary(r, fmt.Sprintf("key-%d", i))]++
	}
	want := keys / 5
	for m, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("member %q owns %d keys, want within [%d, %d]", m, c, want/2, want*2)
		}
	}
}

func TestSequentialKeysSpread(t *testing.T) {
	// Regression: FNV without a finalizer mapped every sequential
	// key ("key-0", "key-1", ...) to one member because trailing-byte
	// changes barely moved the hash.
	r := newTestRing(5)
	counts := map[string]int{}
	for i := 0; i < 500; i++ {
		counts[primary(r, fmt.Sprintf("key-%d", i))]++
	}
	if len(counts) < 4 {
		t.Fatalf("500 sequential keys landed on only %d of 5 members: %v", len(counts), counts)
	}
	for m, c := range counts {
		if c > 300 {
			t.Fatalf("member %q owns %d of 500 sequential keys", m, c)
		}
	}
}

func TestGetNPropertyQuick(t *testing.T) {
	r := newTestRing(7)
	f := func(key string, nRaw uint8) bool {
		n := int(nRaw%7) + 1
		got := r.GetN(key, n)
		if len(got) != n {
			return false
		}
		seen := map[string]bool{}
		for _, m := range got {
			if seen[m] {
				return false
			}
			seen[m] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// AppendN extends dst with exactly what GetN returns: members already in
// dst (another key's placement sharing the slice) are appended again,
// and an empty ring or n <= 0 leaves dst as it was.
func TestAppendNExtendsDst(t *testing.T) {
	r := newTestRing(5)
	a, b := r.GetN("key-a", 3), r.GetN("key-b", 4)
	got := r.AppendN(r.AppendN(nil, "key-a", 3), "key-b", 4)
	if want := fmt.Sprint(append(append([]string(nil), a...), b...)); fmt.Sprint(got) != want {
		t.Fatalf("AppendN chain = %v, want %v", got, want)
	}
	if got := r.AppendN(a, "key-b", 0); len(got) != len(a) {
		t.Fatalf("AppendN(n=0) changed dst: %v", got)
	}
	if got := Build(0, nil).AppendN(a, "key-b", 3); len(got) != len(a) {
		t.Fatalf("AppendN on an empty ring changed dst: %v", got)
	}
}
