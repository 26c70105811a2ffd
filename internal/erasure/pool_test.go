package erasure

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"ecstore/internal/bufpool"
)

func TestBufferPoolGetZeroed(t *testing.T) {
	p := bufpool.New()
	b := p.Get(1000)
	if len(b) != 1000 {
		t.Fatalf("Get(1000) len = %d", len(b))
	}
	for i := range b {
		b[i] = 0xAB
	}
	p.Put(b)
	b2 := p.Get(1000)
	for i, v := range b2 {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %#x", i, v)
		}
	}
}

func TestBufferPoolReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	p := bufpool.New()
	b := p.Get(64 << 10)
	p.Put(b)
	b2 := p.Get(64 << 10)
	if &b[0] != &b2[0] {
		t.Fatal("pool did not recycle the buffer")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want Gets=2 Hits=1 Puts=1", st)
	}
}

func TestBufferPoolOutOfRangeSizes(t *testing.T) {
	p := bufpool.New()
	// Oversized buffers bypass the pool entirely.
	for _, n := range []int{(4 << 20) + 1, 16 << 20} {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) len = %d", n, len(b))
		}
		p.Put(b) // must not panic; out-of-class buffers are dropped
	}
	if st := p.Stats(); st.Hits != 0 || st.Puts != 0 {
		t.Fatalf("oversized buffers should never be pooled, stats = %+v", st)
	}
}

func TestBufferPoolTinySizesShareMinClass(t *testing.T) {
	// Sub-512 B requests are clamped into the smallest class, so they
	// recycle each other's buffers.
	p := bufpool.New()
	b := p.Get(1)
	p.Put(b)
	b2 := p.Get(100)
	if len(b2) != 100 || cap(b2) != 512 {
		t.Fatalf("Get(100): len=%d cap=%d, want 100/512", len(b2), cap(b2))
	}
	if !raceEnabled && p.Stats().Hits != 1 {
		t.Fatalf("tiny sizes should share the 512 B class, stats = %+v", p.Stats())
	}
}

func TestBufferPoolRejectsForeignBuffers(t *testing.T) {
	p := bufpool.New()
	p.Put(make([]byte, 1000))           // cap not a power of two: dropped
	p.Put(nil)                          // nil: dropped
	p.Put(make([]byte, 100, 1024)[:50]) // power-of-two cap: retained
	st := p.Stats()
	if st.Puts != 1 {
		t.Fatalf("Puts = %d, want 1 (only the exact-class buffer)", st.Puts)
	}
	if got := p.Get(1024); len(got) != 1024 {
		t.Fatalf("Get(1024) len = %d", len(got))
	}
}

func TestSplitPooledMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 100, 1 << 10, 4<<10 + 3, 1 << 20} {
		value := randValue(rng, n)
		want := Split(value, 3, 2)
		ps := SplitPooled(value, 3, 2, bufpool.New())
		if len(ps.Shards) != len(want) {
			t.Fatalf("n=%d: shard count %d, want %d", n, len(ps.Shards), len(want))
		}
		for i := range want {
			if !bytes.Equal(ps.Shards[i], want[i]) {
				t.Fatalf("n=%d: shard %d differs from Split", n, i)
			}
		}
		ps.Release()
	}
}

func TestSplitPooledZeroPadsRecycledBuffers(t *testing.T) {
	p := bufpool.New()
	// Dirty the pool with a buffer full of 0xFF.
	dirty := p.Get(1 << 10)
	for i := range dirty {
		dirty[i] = 0xFF
	}
	p.Put(dirty)
	// A short value must come back zero-padded, not 0xFF-padded.
	value := []byte("short")
	ps := SplitPooled(value, 1, 1, p)
	s := ps.Shards[0]
	if !bytes.Equal(s[:len(value)], value) {
		t.Fatal("data prefix mangled")
	}
	for i := len(value); i < len(s); i++ {
		if s[i] != 0 {
			t.Fatalf("padding byte %d = %#x, want 0", i, s[i])
		}
	}
	ps.Release()
}

func TestSplitPooledLendsWholeShards(t *testing.T) {
	// An exactly divisible value lends every data shard, a ragged one all
	// but the last, and one shorter than a shard none: whatever it lends
	// is the value's own memory, whatever it leases equals Split's copy,
	// and Release hands the pool the leased and parity buffers only.
	const k, m = 3, 2
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		name string
		n    int
		lent int
	}{
		// 3 × 4096: every lent window's cap is a pool size class, the
		// case a careless Release would push into the pool.
		{"divisible", 3 * 4096, 3},
		{"ragged", 3*4096 - 5, 2},
		{"short", 5, 0},
		{"one-shard-and-a-bit", 8 + 3, 1},
		{"empty", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := bufpool.New()
			code, err := NewRSVan(k, m, WithPool(pool))
			if err != nil {
				t.Fatal(err)
			}
			value := randValue(rng, tc.n)
			orig := bytes.Clone(value)
			want := Split(value, k, m)
			ps := SplitPooled(value, k, m, pool)
			per := len(want[0])
			for i := 0; i < k; i++ {
				if !bytes.Equal(ps.Shards[i], want[i]) {
					t.Fatalf("shard %d differs from Split", i)
				}
				aliased := (i+1)*per <= len(value) && &ps.Shards[i][0] == &value[i*per]
				if aliased != (i < tc.lent) {
					t.Fatalf("shard %d aliases the value: %v, want %v", i, aliased, i < tc.lent)
				}
				if aliased && cap(ps.Shards[i]) != per {
					t.Fatalf("lent shard %d has cap %d, want it clipped to %d", i, cap(ps.Shards[i]), per)
				}
			}
			if got := pool.Stats().Gets; got != uint64(k-tc.lent) {
				t.Fatalf("SplitPooled leased %d buffers, want %d", got, k-tc.lent)
			}
			if err := code.Encode(ps.Shards); err != nil {
				t.Fatal(err)
			}
			if err := code.Encode(want); err != nil {
				t.Fatal(err)
			}
			for i := k; i < k+m; i++ {
				if !bytes.Equal(ps.Shards[i], want[i]) {
					t.Fatalf("parity shard %d differs from the copying split's", i)
				}
			}
			ps.Release()
			if !bytes.Equal(value, orig) {
				t.Fatal("the value was written through a lent shard")
			}
			// Owned: the leased data shards and the m parity buffers.
			if got := pool.Stats().Puts; got != uint64(k-tc.lent+m) {
				t.Fatalf("Release put back %d buffers, want %d", got, k-tc.lent+m)
			}
			ps.Release()
			if got := pool.Stats().Puts; got != uint64(k-tc.lent+m) {
				t.Fatalf("second Release put back buffers: Puts = %d", got)
			}
		})
	}
}

func TestPooledShardsDoubleRelease(t *testing.T) {
	p := bufpool.New()
	// Five bytes over three shards: nothing to lend, all three leased.
	ps := SplitPooled(bytes.Repeat([]byte{1}, 5), 3, 2, p)
	ps.Release()

	// The pool now holds the three data buffers. A second Release must
	// not push anything again — otherwise the same backing array could
	// be handed to two callers.
	a := p.GetRaw(8)
	ps.Release()
	b := p.GetRaw(8)
	c := p.GetRaw(8)
	if &a[0] == &b[0] || &a[0] == &c[0] || &b[0] == &c[0] {
		t.Fatal("double release produced aliased buffers")
	}
	if got := p.Stats().Puts; got != 3 {
		t.Fatalf("Puts = %d, want 3 (second Release must be a no-op)", got)
	}
	var nilPS *PooledShards
	nilPS.Release() // must not panic
}

func TestSplitPooledConcurrentStress(t *testing.T) {
	// 100 goroutines, each splitting its own value against one shared
	// pool and code: lent shards are only ever read, leased ones never
	// shared (the race detector fires on either), and every stripe
	// verifies.
	pool := bufpool.New()
	code, err := NewRSVan(3, 2, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 100; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			for i := 0; i < 10; i++ {
				value := randValue(rng, 1+rng.Intn(48<<10))
				ps := SplitPooled(value, 3, 2, pool)
				if err := code.Encode(ps.Shards); err != nil {
					t.Error(err)
					return
				}
				if ok, err := code.Verify(ps.Shards); err != nil || !ok {
					t.Errorf("goroutine %d iter %d: Verify ok=%v err=%v", id, i, ok, err)
					return
				}
				got, err := Join(ps.Shards, 3, len(value))
				if err != nil || !bytes.Equal(got, value) {
					t.Errorf("goroutine %d iter %d: join differs (err=%v)", id, i, err)
					return
				}
				ps.Release()
			}
		}(g)
	}
	wg.Wait()
}

func TestBufferPoolConcurrentStress(t *testing.T) {
	p := bufpool.New()
	const goroutines = 8
	const iters = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			sizes := []int{512, 2 << 10, 64 << 10, 300, 100 << 10}
			for i := 0; i < iters; i++ {
				n := sizes[rng.Intn(len(sizes))]
				b := p.GetRaw(n)
				pat := byte(id*31 + i)
				for j := range b {
					b[j] = pat
				}
				// If two goroutines ever hold the same buffer, one of
				// them observes the other's pattern here (and the race
				// detector fires on the writes above).
				for j := range b {
					if b[j] != pat {
						t.Errorf("goroutine %d iter %d: buffer byte %d = %#x, want %#x", id, i, j, b[j], pat)
						return
					}
				}
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
}

func TestConcurrentPooledEncodeRelease(t *testing.T) {
	// End-to-end pool pressure: concurrent SplitPooled → Encode →
	// Reconstruct → Release cycles against one shared pool and one
	// shared code, verifying every round trip bit-for-bit.
	pool := bufpool.New()
	code, err := NewRSVan(3, 2, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + id)))
			for i := 0; i < 30; i++ {
				value := randValue(rng, 1+rng.Intn(128<<10))
				ps := SplitPooled(value, 3, 2, pool)
				if err := code.Encode(ps.Shards); err != nil {
					t.Error(err)
					return
				}
				work := make([][]byte, len(ps.Shards))
				copy(work, ps.Shards)
				work[rng.Intn(3)] = nil
				work[3+rng.Intn(2)] = nil
				if err := code.Reconstruct(work); err != nil {
					t.Error(err)
					return
				}
				got, err := Join(work, 3, len(value))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, value) {
					t.Errorf("goroutine %d iter %d: round trip differs", id, i)
					return
				}
				ps.Release()
			}
		}(g)
	}
	wg.Wait()
}
