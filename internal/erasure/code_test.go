package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// mustRSVan returns an RS(k, m) code or fails the test.
func mustRSVan(t testing.TB, k, m int) *RSVan {
	t.Helper()
	code, err := NewRSVan(k, m)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func randValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	rng.Read(v)
	return v
}

func TestEncodeDecodeAllErasurePatterns(t *testing.T) {
	for _, km := range [][2]int{{3, 2}, {4, 2}, {6, 3}, {2, 1}, {1, 2}} {
		k, m := km[0], km[1]
		code := mustRSVan(t, k, m)
		t.Run(fmt.Sprintf("%s_%d_%d", code.Name(), k, m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			value := randValue(rng, 1000)
			shards := Split(value, k, m)
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
				got, err := Join(work, k, len(value))
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
	code := mustRSVan(t, 3, 2)
	value := make([]byte, 100)
	shards := Split(value, 3, 2)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := code.Reconstruct(shards); !errors.Is(err, ErrTooFewShards) {
		t.Errorf("%s: got err %v, want ErrTooFewShards", code.Name(), err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	code := mustRSVan(t, 3, 2)
	rng := rand.New(rand.NewSource(9))
	shards := Split(randValue(rng, 500), 3, 2)
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

func TestEncodeRejectsBadShards(t *testing.T) {
	code := mustRSVan(t, 3, 2)
	// Wrong count.
	if err := code.Encode(make([][]byte, 4)); !errors.Is(err, ErrShardCount) {
		t.Errorf("%s count: got %v", code.Name(), err)
	}
	// Nil data shard.
	shards := Split(make([]byte, 64), 3, 2)
	shards[1] = nil
	if err := code.Encode(shards); !errors.Is(err, ErrShardSize) {
		t.Errorf("%s nil data: got %v", code.Name(), err)
	}
	// Unequal sizes.
	shards = Split(make([]byte, 64), 3, 2)
	shards[2] = shards[2][:8]
	if err := code.Encode(shards); !errors.Is(err, ErrShardSize) {
		t.Errorf("%s unequal: got %v", code.Name(), err)
	}
}

func TestBadParameters(t *testing.T) {
	if _, err := NewRSVan(0, 2); err == nil {
		t.Error("NewRSVan(0,2) succeeded")
	}
	if _, err := NewRSVan(3, 0); err == nil {
		t.Error("NewRSVan(3,0) succeeded")
	}
	if _, err := NewRSVan(200, 100); err == nil {
		t.Error("NewRSVan(200,100) succeeded")
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	f := func(data []byte, kRaw, mRaw uint8) bool {
		k := 1 + int(kRaw%8)
		m := 1 + int(mRaw%4)
		if len(data) == 0 {
			data = []byte{0}
		}
		shards := Split(data, k, m)
		if len(shards) != k+m {
			return false
		}
		for i := 0; i < k; i++ {
			if len(shards[i]) != len(shards[0]) || len(shards[i])%packetAlign != 0 {
				return false
			}
		}
		got, err := Join(shards, k, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitDoesNotAlias(t *testing.T) {
	value := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	shards := Split(value, 2, 1)
	shards[0][0] = 99
	if value[0] != 1 {
		t.Fatal("Split aliases the input value")
	}
}

// TestJoinOneUninitialisedAllocation pins Join against the append loop
// it replaced: the same bytes for every round-trip size and data-shard
// count, in exactly one allocation whose capacity ends at dataLen (the
// shard padding past it must not be reachable through append).
func TestJoinOneUninitialisedAllocation(t *testing.T) {
	appendJoin := func(shards [][]byte, k, dataLen int) []byte {
		out := make([]byte, 0, dataLen)
		for i := 0; i < k && len(out) < dataLen; i++ {
			s := shards[i]
			if need := dataLen - len(out); len(s) > need {
				s = s[:need]
			}
			out = append(out, s...)
		}
		return out
	}
	rng := rand.New(rand.NewSource(25))
	for _, k := range []int{1, 3, 4} {
		for _, size := range roundTripSizes {
			shards := Split(randValue(rng, size), k, 2)
			got, err := Join(shards, k, size)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, appendJoin(shards, k, size)) {
				t.Fatalf("k=%d size=%d: Join differs from the append loop", k, size)
			}
			if cap(got) != len(got) {
				t.Fatalf("k=%d size=%d: cap %d, len %d", k, size, cap(got), len(got))
			}
			if raceEnabled {
				continue
			}
			if n := testing.AllocsPerRun(5, func() { _, _ = Join(shards, k, size) }); n != 1 {
				t.Fatalf("k=%d size=%d: Join allocates %.0f times, want 1", k, size, n)
			}
		}
	}
}

func TestJoinErrors(t *testing.T) {
	if _, err := Join(make([][]byte, 1), 3, 10); !errors.Is(err, ErrTooFewShards) {
		t.Errorf("short slice: %v", err)
	}
	shards := Split(make([]byte, 32), 3, 2)
	shards[1] = nil
	if _, err := Join(shards, 3, 32); err == nil {
		t.Error("nil data shard: no error")
	}
	shards = Split(make([]byte, 32), 3, 2)
	if _, err := Join(shards, 3, 1<<20); !errors.Is(err, ErrShardSize) {
		t.Errorf("oversized dataLen: %v", err)
	}
}

func TestShardSize(t *testing.T) {
	cases := []struct{ dataLen, k, align, want int }{
		{1000, 3, 8, 336},
		{0, 3, 8, 8},
		{24, 3, 8, 8},
		{25, 3, 8, 16},
		{10, 2, 1, 5},
	}
	for _, c := range cases {
		if got := ShardSize(c.dataLen, c.k, c.align); got != c.want {
			t.Errorf("ShardSize(%d,%d,%d) = %d, want %d", c.dataLen, c.k, c.align, got, c.want)
		}
	}
}

func TestRSVanSystematic(t *testing.T) {
	rs, err := NewRSVan(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen := rs.Generator()
	top := gen.SubMatrix([]int{0, 1, 2, 3})
	if !top.IsIdentity() {
		t.Fatal("generator top is not the identity (code is not systematic)")
	}
}

func TestReconstructParityOnly(t *testing.T) {
	code := mustRSVan(t, 3, 2)
	rng := rand.New(rand.NewSource(3))
	shards := Split(randValue(rng, 200), 3, 2)
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

func TestEncodeDecodeQuick(t *testing.T) {
	rs, err := NewRSVan(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte, eraseRaw [2]uint8) bool {
		if len(data) == 0 {
			data = []byte{1}
		}
		shards := Split(data, 3, 2)
		if err := rs.Encode(shards); err != nil {
			return false
		}
		e1 := int(eraseRaw[0]) % 5
		e2 := int(eraseRaw[1]) % 5
		shards[e1] = nil
		shards[e2] = nil
		if err := rs.Reconstruct(shards); err != nil {
			return false
		}
		got, err := Join(shards, 3, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
