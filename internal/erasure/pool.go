package erasure

import (
	"sync/atomic"

	"ecstore/internal/bufpool"
)

// BufferPool is the size-classed, sync.Pool-backed shard-buffer
// allocator. It now lives in internal/bufpool so the wire path can
// lease frame buffers from the same classes the codec recycles shard
// buffers through; the erasure-side names are kept as aliases because
// the codec API (WithPool, SplitPooled) predates the move.
type BufferPool = bufpool.Pool

// DefaultPool is the process-wide shard-buffer pool — bufpool.Default,
// shared with the rpc and server frame paths. NewRSVan uses it unless
// overridden with WithPool.
var DefaultPool = bufpool.Default

// PooledShards is a shard set whose buffers were drawn from a
// BufferPool, with explicit release semantics: call Release exactly
// once when the shards are no longer referenced. Release is idempotent
// — extra calls are safe no-ops — and releasing is optional in the
// sense that a forgotten Release only costs pool efficiency (the
// garbage collector reclaims the buffers as usual).
type PooledShards struct {
	// Shards holds k data buffers followed by m parity slots. Parity
	// slots start nil; RSVan.Encode fills them from its pool. The
	// slice may be passed directly to Encode/Reconstruct/Verify. The
	// data shards SplitPooled lends are windows of the caller's value:
	// read them, never write them.
	Shards [][]byte

	// arr backs Shards for the common k+m <= 16 configurations, saving
	// a separate slice allocation per operation.
	arr  [16][]byte
	pool *BufferPool
	// lent counts the leading data shards that alias the value handed
	// to SplitPooled. They are the caller's memory: Release leaves them
	// alone and returns Shards[lent:] only.
	lent     int
	released atomic.Bool
}

// newPooledShards returns an empty set of n shard slots over pool.
func newPooledShards(n int, pool *BufferPool) *PooledShards {
	ps := &PooledShards{pool: pool}
	if n <= len(ps.arr) {
		ps.Shards = ps.arr[:n]
	} else {
		ps.Shards = make([][]byte, n)
	}
	return ps
}

// SplitPooled is Split without the copy: it cuts value into k equally
// sized data shards followed by m nil parity slots. Every data shard
// that lies wholly inside value is a window of it — capacity clipped,
// so an append cannot run into the next shard — and only the ragged
// last one and any that are all padding are leased from pool, copied
// into and zero-padded. A nil pool uses DefaultPool.
//
// value must stay unmodified until Release: the lent shards are value's
// own bytes.
func SplitPooled(value []byte, k, m int, pool *BufferPool) *PooledShards {
	if pool == nil {
		pool = DefaultPool
	}
	per := ShardSize(len(value), k, packetAlign)
	ps := newPooledShards(k+m, pool)
	ps.lent = min(len(value)/per, k)
	for i := 0; i < ps.lent; i++ {
		ps.Shards[i] = value[i*per : (i+1)*per : (i+1)*per]
	}
	for i := ps.lent; i < k; i++ {
		s := pool.GetRaw(per)
		n := 0
		if lo := i * per; lo < len(value) {
			n = copy(s, value[lo:])
		}
		clear(s[n:]) // zero the padding a raw pool buffer may carry
		ps.Shards[i] = s
	}
	return ps
}

// Release returns every shard buffer the set owns — the leased data
// shards and whatever Encode put in the parity slots, not the windows
// lent from the caller's value — to the pool and clears the Shards
// slice. The first call wins; subsequent calls (including concurrent
// ones) do nothing, so a double release can never hand the same buffer
// out twice.
func (ps *PooledShards) Release() {
	if ps == nil || !ps.released.CompareAndSwap(false, true) {
		return
	}
	for i, s := range ps.Shards {
		if i >= ps.lent {
			ps.pool.Put(s)
		}
		ps.Shards[i] = nil
	}
}
