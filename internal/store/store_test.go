package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSetGetRoundTrip(t *testing.T) {
	s := New(Config{})
	if err := s.Set("k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestGetMiss(t *testing.T) {
	s := New(Config{})
	if _, ok := s.Get("missing"); ok {
		t.Fatal("hit on missing key")
	}
	st := s.Stats()
	if st.Misses != 1 || st.Gets != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOverwrite(t *testing.T) {
	s := New(Config{})
	_ = s.Set("k", []byte("old"), 0)
	_ = s.Set("k", []byte("new-longer-value"), 0)
	got, _ := s.Get("k")
	if string(got) != "new-longer-value" {
		t.Fatalf("got %q", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", s.Len())
	}
	want := itemSize("k", []byte("new-longer-value"))
	if s.UsedBytes() != want {
		t.Fatalf("used = %d, want %d", s.UsedBytes(), want)
	}
}

// TestValueCopied pins the ownership contract (the name predates it):
// the store keeps the slice a write hands it instead of copying it, so
// a Get after Set, SetVersioned or CompareSwap returns the caller's own
// backing array — which the caller therefore must not modify.
func TestValueCopied(t *testing.T) {
	s := New(Config{})
	same := func(op string, v []byte) {
		t.Helper()
		got, ok := s.Get("k")
		if !ok || &got[0] != &v[0] || len(got) != len(v) {
			t.Fatalf("Get after %s did not return the caller's backing array", op)
		}
	}
	v1 := []byte("abc")
	if err := s.Set("k", v1, 0); err != nil {
		t.Fatal(err)
	}
	same("Set", v1)
	v2 := []byte("defg")
	if err := s.SetVersioned("k", v2, 0, 5); err != nil {
		t.Fatal(err)
	}
	same("SetVersioned", v2)
	v3 := []byte("hi")
	if out, _, err := s.CompareSwap("k", v3, 0, 5, 6, false); err != nil || out != CASStored {
		t.Fatalf("CompareSwap: %v %v", out, err)
	}
	same("CompareSwap", v3)
}

// TestGetLendsImmutableValue pins the lend contract: Get and GetMeta
// hand out the stored slice itself, and nothing the store does to the
// key afterwards may change those bytes — an overwrite installs a new
// slice, a delete or an eviction drops the old one, none writes to it.
func TestGetLendsImmutableValue(t *testing.T) {
	// One shard with room for exactly one item of this size.
	budget := itemSize("k", bytes.Repeat([]byte{0}, 64))
	s := New(Config{MaxBytes: budget, Shards: 1})
	want := bytes.Repeat([]byte("v1"), 32)
	if err := s.Set("k", want, 0); err != nil {
		t.Fatal(err)
	}
	lent, _, _, ok := s.GetMeta("k")
	if !ok {
		t.Fatal("GetMeta missed a stored key")
	}
	if again, _ := s.Get("k"); &again[0] != &lent[0] {
		t.Fatal("Get copied the value: reads are meant to lend the stored slice")
	}
	check := func(after string) {
		t.Helper()
		if !bytes.Equal(lent, want) {
			t.Fatalf("lent value changed after %s: %q", after, lent)
		}
	}

	if err := s.Set("k", bytes.Repeat([]byte("v2"), 32), 0); err != nil {
		t.Fatal(err)
	}
	check("an overwrite")
	if out, _, err := s.CompareSwap("k", bytes.Repeat([]byte("v3"), 32), 0, 0, 7, true); err != nil || out != CASExists {
		t.Fatalf("add over a present key: %v %v", out, err)
	}
	if err := s.SetVersioned("k", bytes.Repeat([]byte("v4"), 32), 0, 9); err != nil {
		t.Fatal(err)
	}
	if out, _, err := s.CompareSwap("k", bytes.Repeat([]byte("v5"), 32), 0, 9, 10, false); err != nil || out != CASStored {
		t.Fatalf("swap: %v %v", out, err)
	}
	check("a compare-and-swap")
	if !s.Delete("k") {
		t.Fatal("Delete missed the key")
	}
	check("a delete")

	// Re-install, lend again, then evict it with a second key under the
	// one-item budget.
	if err := s.Set("k", want, 0); err != nil {
		t.Fatal(err)
	}
	lent, _ = s.Get("k")
	if err := s.Set("o", bytes.Repeat([]byte("zz"), 32), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("k survived a Set that needed its room")
	}
	check("an eviction")
}

func TestDelete(t *testing.T) {
	s := New(Config{})
	_ = s.Set("k", []byte("v"), 0)
	if !s.Delete("k") {
		t.Fatal("Delete returned false for present key")
	}
	if s.Delete("k") {
		t.Fatal("Delete returned true for absent key")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("key present after delete")
	}
	if s.UsedBytes() != 0 {
		t.Fatalf("used = %d after delete", s.UsedBytes())
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{Now: func() time.Time { return now }})
	_ = s.Set("k", []byte("v"), time.Minute)
	if _, ok := s.Get("k"); !ok {
		t.Fatal("fresh item expired")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := s.Get("k"); ok {
		t.Fatal("expired item still readable")
	}
	st := s.Stats()
	if st.Expired != 1 {
		t.Fatalf("expired = %d", st.Expired)
	}
	if s.UsedBytes() != 0 {
		t.Fatal("expired item still accounted")
	}
}

func TestNoTTLNeverExpires(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{Now: func() time.Time { return now }})
	_ = s.Set("k", []byte("v"), 0)
	now = now.Add(1000 * time.Hour)
	if _, ok := s.Get("k"); !ok {
		t.Fatal("no-TTL item expired")
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard so the LRU order is global and predictable.
	val := make([]byte, 100)
	per := itemSize("k0", val)
	s := New(Config{MaxBytes: per * 3, Shards: 1})
	for i := 0; i < 3; i++ {
		if err := s.Set(fmt.Sprintf("k%d", i), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 becomes LRU.
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	if err := s.Set("k3", val, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("k1 (LRU) not evicted")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.EvictBytes != per {
		t.Fatalf("stats %+v", st)
	}
}

func TestDisableEviction(t *testing.T) {
	val := make([]byte, 100)
	per := itemSize("k0", val)
	s := New(Config{MaxBytes: per * 2, Shards: 1, DisableEviction: true})
	_ = s.Set("k0", val, 0)
	_ = s.Set("k1", val, 0)
	if err := s.Set("k2", val, 0); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("got %v, want ErrOutOfMemory", err)
	}
	st := s.Stats()
	if st.Failures != 1 {
		t.Fatalf("failures = %d", st.Failures)
	}
}

func TestValueTooLarge(t *testing.T) {
	s := New(Config{MaxBytes: 1024, Shards: 1})
	if err := s.Set("k", make([]byte, 2048), 0); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestMemoryAccounting(t *testing.T) {
	s := New(Config{Shards: 4})
	var want int64
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		val := make([]byte, i*10)
		_ = s.Set(key, val, 0)
		want += itemSize(key, val)
	}
	if got := s.UsedBytes(); got != want {
		t.Fatalf("used = %d, want %d", got, want)
	}
	for i := 0; i < 100; i++ {
		s.Delete(fmt.Sprintf("key-%d", i))
	}
	if got := s.UsedBytes(); got != 0 {
		t.Fatalf("used = %d after deleting all", got)
	}
}

func TestFlush(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 50; i++ {
		_ = s.Set(fmt.Sprintf("k%d", i), []byte("v"), 0)
	}
	s.Flush()
	if s.Len() != 0 || s.UsedBytes() != 0 {
		t.Fatalf("len=%d used=%d after flush", s.Len(), s.UsedBytes())
	}
}

func TestStatsCounters(t *testing.T) {
	s := New(Config{})
	_ = s.Set("a", []byte("1"), 0)
	_, _ = s.Get("a")
	_, _ = s.Get("b")
	s.Delete("a")
	st := s.Stats()
	if st.Sets != 1 || st.Gets != 2 || st.Hits != 1 || st.Misses != 1 || st.Deletes != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMaxBytesSplit(t *testing.T) {
	s := New(Config{MaxBytes: 1 << 20, Shards: 16})
	if s.MaxBytes() != 1<<20 {
		t.Fatalf("MaxBytes = %d", s.MaxBytes())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(Config{MaxBytes: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%50)
				_ = s.Set(key, []byte("value"), 0)
				_, _ = s.Get(key)
				if i%10 == 0 {
					s.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
	// Invariant: accounting matches contents.
	var want int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, el := range sh.items {
			want += el.size
		}
		sh.mu.Unlock()
	}
	if got := s.UsedBytes(); got != want {
		t.Fatalf("used = %d, recomputed = %d", got, want)
	}
}

func TestAccountingInvariantQuick(t *testing.T) {
	type op struct {
		Key byte
		Val []byte
		Del bool
	}
	f := func(ops []op) bool {
		s := New(Config{MaxBytes: 4096, Shards: 2})
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%16)
			if o.Del {
				s.Delete(key)
			} else {
				v := o.Val
				if len(v) > 256 {
					v = v[:256]
				}
				_ = s.Set(key, v, 0)
			}
		}
		var want int64
		items := 0
		for _, sh := range s.shards {
			sh.mu.Lock()
			for _, el := range sh.items {
				want += el.size
			}
			items += len(sh.items)
			if sh.maxBytes > 0 && sh.used > sh.maxBytes {
				sh.mu.Unlock()
				return false
			}
			sh.mu.Unlock()
		}
		return s.UsedBytes() == want && s.Len() == items
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
