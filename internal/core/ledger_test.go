package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/rpc"
)

// TestHolderLedger pins the ledger's rule on a fake clock: three misses
// in a row skip a holder for rpc.DefaultProbeMax, a hit in between
// starts the count again, the first read after the window asks the
// holder again and a miss there skips it for another window, and one
// hit forgets it.
func TestHolderLedger(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	placement := []string{"a", "b", "c"}
	var l holderLedger
	miss := func(j int) {
		var m erasure.ShardSet
		m.Add(j)
		l.record(placement, erasure.ShardSet{}, m, clock)
	}
	hit := func(j int) {
		var h erasure.ShardSet
		h.Add(j)
		l.record(placement, h, erasure.ShardSet{}, clock)
	}
	skipped := func() []string { return l.skipped(nil, clock) }

	miss(0)
	miss(0)
	hit(0) // a chunk evicted now and then never skips its holder
	miss(0)
	miss(0)
	if got := skipped(); got != nil {
		t.Fatalf("skipped %v after two misses in a row", got)
	}
	miss(0)
	if got := skipped(); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("skipped %v after three misses in a row, want [a]", got)
	}
	now = now.Add(rpc.DefaultProbeMax - time.Nanosecond)
	if got := skipped(); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("skipped %v inside the window, want [a]", got)
	}
	now = now.Add(time.Nanosecond)
	if got := skipped(); got != nil {
		t.Fatalf("skipped %v once the window passed", got)
	}
	miss(0) // the probe misses: another window
	if got := skipped(); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("skipped %v after a missed probe, want [a]", got)
	}
	hit(0)
	if got := skipped(); got != nil || l.tracked.Load() != 0 || l.skipping.Load() != 0 {
		t.Fatalf("after a hit: skipped %v, tracked %d, skipping %d; want none", got, l.tracked.Load(), l.skipping.Load())
	}
	if got := skipSet(placement, []string{"c"}); got != (erasure.ShardSet{4}) {
		t.Fatalf("skipSet = %v, want position 2", got)
	}
}

// TestHolderLedgerConcurrent drives one ledger from many readers at once,
// as a client's concurrent Gets and a server's concurrent decode-gets
// do; run it under -race. Once every holder has hit, nothing is left.
func TestHolderLedgerConcurrent(t *testing.T) {
	placement := []string{"a", "b", "c", "d", "e"}
	var l holderLedger
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var hits, misses erasure.ShardSet
				for j := range placement {
					if (i+j+g)%3 == 0 {
						misses.Add(j)
					} else {
						hits.Add(j)
					}
				}
				l.record(placement, hits, misses, time.Now)
				_ = skipSet(placement, l.skipped(nil, time.Now))
			}
		}()
	}
	wg.Wait()
	var all erasure.ShardSet
	for j := range placement {
		all.Add(j)
	}
	l.record(placement, all, erasure.ShardSet{}, time.Now)
	if l.tracked.Load() != 0 || l.skipping.Load() != 0 || len(l.holders) != 0 {
		t.Fatalf("after every holder hit: tracked %d, skipping %d, %d entries", l.tracked.Load(), l.skipping.Load(), len(l.holders))
	}
}
