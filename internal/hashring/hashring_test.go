package hashring

import (
	"fmt"
	"testing"
	"testing/quick"
)

func newTestRing(n int) *Ring {
	r := New(0)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("server-%d", i))
	}
	return r
}

func TestEmptyRing(t *testing.T) {
	r := New(0)
	if _, ok := r.Get("k"); ok {
		t.Fatal("Get on empty ring returned ok")
	}
	if got := r.GetN("k", 3); got != nil {
		t.Fatalf("GetN on empty ring = %v", got)
	}
	if r.Len() != 0 {
		t.Fatal("empty ring has members")
	}
}

func TestGetDeterministic(t *testing.T) {
	r := newTestRing(5)
	a, _ := r.Get("mykey")
	for i := 0; i < 100; i++ {
		b, ok := r.Get("mykey")
		if !ok || b != a {
			t.Fatalf("Get not deterministic: %q vs %q", a, b)
		}
	}
}

func TestAddIdempotent(t *testing.T) {
	r := New(0)
	r.Add("s1")
	r.Add("s1")
	if r.Len() != 1 {
		t.Fatalf("len = %d after duplicate Add", r.Len())
	}
}

func TestRemove(t *testing.T) {
	r := newTestRing(3)
	r.Remove("server-1")
	if r.Len() != 2 {
		t.Fatalf("len = %d after Remove", r.Len())
	}
	for i := 0; i < 1000; i++ {
		m, ok := r.Get(fmt.Sprintf("key-%d", i))
		if !ok {
			t.Fatal("Get failed")
		}
		if m == "server-1" {
			t.Fatal("removed member still returned")
		}
	}
	r.Remove("no-such-member") // no-op
	if r.Len() != 2 {
		t.Fatal("removing unknown member changed ring")
	}
}

func TestGetNDistinctAndPrimaryFirst(t *testing.T) {
	r := newTestRing(5)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		primary, _ := r.Get(key)
		got := r.GetN(key, 5)
		if len(got) != 5 {
			t.Fatalf("GetN returned %d members", len(got))
		}
		if got[0] != primary {
			t.Fatalf("GetN[0] = %q, primary = %q", got[0], primary)
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
	r := newTestRing(10)
	const keys = 5000
	before := make([]string, keys)
	for i := range before {
		before[i], _ = r.Get(fmt.Sprintf("key-%d", i))
	}
	r.Remove("server-3")
	moved := 0
	for i := range before {
		after, _ := r.Get(fmt.Sprintf("key-%d", i))
		if after != before[i] {
			moved++
			if before[i] != "server-3" {
				t.Fatalf("key %d moved from %q (not the removed member)", i, before[i])
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
		m, _ := r.Get(fmt.Sprintf("key-%d", i))
		counts[m]++
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
		m, _ := r.Get(fmt.Sprintf("key-%d", i))
		counts[m]++
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

func TestMembersSorted(t *testing.T) {
	r := New(0)
	r.Add("c")
	r.Add("a")
	r.Add("b")
	got := r.Members()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("Members() = %v", got)
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
	if got := New(0).AppendN(a, "key-b", 3); len(got) != len(a) {
		t.Fatalf("AppendN on an empty ring changed dst: %v", got)
	}
}
