package core

import (
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/rpc"
)

// holderLedger is a client's memory of the chunk holders that keep
// missing on reads (DESIGN §12). Every read that decoded tells it, per
// position it asked, a hit (a chunk of the winning stripe) or a miss (no
// chunk at all: not-found, refused, unreachable, timed out, corrupt).
// After rpc.DefaultFailureThreshold misses in a row a holder is skipped
// for rpc.DefaultProbeMax: a read's first round asks other positions in
// its place (wire.ChunkCollector.NextRound). The first read after the
// window asks it again — its probe — and one hit forgets it. A holder
// that only now and then loses a chunk is never skipped.
type holderLedger struct {
	// tracked counts the holders with an entry, skipping those whose
	// misses reached the threshold. On a healthy cluster both stay 0,
	// and a read loads them and goes no further.
	tracked, skipping atomic.Int32

	mu      sync.Mutex
	holders map[string]holderMisses
}

// holderMisses is one holder's run of misses and, once the run reaches
// the threshold, the end of its skip window.
type holderMisses struct {
	misses int
	until  time.Time
}

// skipped appends to dst the holders a read should not ask first now.
func (l *holderLedger) skipped(dst []string, now func() time.Time) []string {
	if l.skipping.Load() == 0 {
		return dst
	}
	t := now()
	l.mu.Lock()
	for addr, h := range l.holders {
		if h.misses >= rpc.DefaultFailureThreshold && t.Before(h.until) {
			dst = append(dst, addr)
		}
	}
	l.mu.Unlock()
	return dst
}

// record notes what one decoded read learned of the holders in
// placement: the positions in hits returned a chunk of the winning
// stripe, those in misses none at all.
func (l *holderLedger) record(placement []string, hits, misses erasure.ShardSet, now func() time.Time) {
	if misses == (erasure.ShardSet{}) && l.tracked.Load() == 0 {
		return
	}
	var t time.Time
	l.mu.Lock()
	defer l.mu.Unlock()
	for j, addr := range placement {
		h, ok := l.holders[addr]
		switch {
		case hits.Has(j) && ok:
			delete(l.holders, addr)
			l.tracked.Add(-1)
			if h.misses >= rpc.DefaultFailureThreshold {
				l.skipping.Add(-1)
			}
		case misses.Has(j):
			if !ok {
				if l.holders == nil {
					l.holders = make(map[string]holderMisses)
				}
				l.tracked.Add(1)
			}
			if h.misses++; h.misses >= rpc.DefaultFailureThreshold {
				if h.misses == rpc.DefaultFailureThreshold {
					l.skipping.Add(1)
				}
				if t.IsZero() {
					t = now()
				}
				h.until = t.Add(rpc.DefaultProbeMax)
			}
			l.holders[addr] = h
		}
	}
}

// skipSet returns the positions of placement whose holders are in
// skipped.
func skipSet(placement, skipped []string) erasure.ShardSet {
	var s erasure.ShardSet
	for j, addr := range placement {
		for _, a := range skipped {
			if a == addr {
				s.Add(j)
			}
		}
	}
	return s
}
