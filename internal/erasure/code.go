// Package erasure is the store's erasure code: Reed-Solomon over
// GF(2^8) with a systematic generator derived from a Vandermonde matrix
// (RSVan, Jerasure's reed_sol_van), the code the paper's Figure 4
// selects as RS(K,M). A value is split into K equally sized data shards
// (Split, SplitPooled), M parity shards are computed, and the value can
// be recovered from any K of the K+M shards.
//
// Around the code sit what the store's write and read paths need: the
// shard buffer pool and the cached decode matrices a degraded read
// inverts once.
package erasure

import (
	"bytes"
	"errors"
	"fmt"
)

// Errors of the shard-level calls.
var (
	// ErrShardCount is returned when the slice passed to Encode,
	// Reconstruct or Verify does not contain exactly K+M shards.
	ErrShardCount = errors.New("erasure: wrong number of shards")
	// ErrShardSize is returned when non-nil shards have unequal or
	// invalid lengths.
	ErrShardSize = errors.New("erasure: invalid shard size")
	// ErrTooFewShards is returned by Reconstruct when fewer than K
	// shards are present.
	ErrTooFewShards = errors.New("erasure: too few shards to reconstruct")
)

// checkShards validates the shape of a shard slice. It returns the
// shard size (from the first non-nil shard) and the count of non-nil
// shards.
func checkShards(shards [][]byte, k, m int, forEncode bool) (size, present int, err error) {
	if len(shards) != k+m {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), k+m)
	}
	size = -1
	for i, s := range shards {
		if s == nil {
			if forEncode && i < k {
				return 0, 0, fmt.Errorf("%w: data shard %d is nil", ErrShardSize, i)
			}
			continue
		}
		present++
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, 0, fmt.Errorf("%w: shard %d has %d bytes, others %d", ErrShardSize, i, len(s), size)
		}
	}
	if size <= 0 {
		return 0, 0, fmt.Errorf("%w: no non-empty shards", ErrShardSize)
	}
	return size, present, nil
}

// MaxShards is the most shards, k+m, a stripe of RSVan may have: the
// field GF(2^8) has 256 elements.
const MaxShards = 256

// ShardSet is a set of shard positions of one stripe: which rows a
// decode reads (RSVan's key for its inverses), which chunks a read has
// asked for. It holds positions [0, MaxShards); Add and Has panic on any
// other. The zero value is the empty set.
type ShardSet [MaxShards / 64]uint64

// Add puts position i in the set.
func (s *ShardSet) Add(i int) { s[i>>6] |= 1 << (i & 63) }

// Has reports whether position i is in the set.
func (s *ShardSet) Has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// ShardSize returns the per-shard size used to encode a value of
// dataLen bytes across k data shards. Shards are padded up so that the
// size is a multiple of align (pass 1 for none).
func ShardSize(dataLen, k, align int) int {
	per := (dataLen + k - 1) / k
	if per == 0 {
		per = 1
	}
	if r := per % align; r != 0 {
		per += align - r
	}
	return per
}

// Split copies value into k data shards of equal size (padded with
// zeros) followed by m nil parity slots. The returned shards do not
// alias value.
func Split(value []byte, k, m int) [][]byte {
	per := ShardSize(len(value), k, packetAlign)
	shards := make([][]byte, k+m)
	for i := 0; i < k; i++ {
		shards[i] = make([]byte, per)
		lo := i * per
		if lo < len(value) {
			hi := lo + per
			if hi > len(value) {
				hi = len(value)
			}
			copy(shards[i], value[lo:hi])
		}
	}
	return shards
}

// Join concatenates the k data shards and truncates to dataLen,
// reversing Split. It returns an error if any data shard is nil or the
// shards cannot hold dataLen bytes. The value is one allocation that
// bytes.Join leaves uninitialised and writes each shard into once; its
// capacity is cut to dataLen, so the padding past it is unreachable.
func Join(shards [][]byte, k, dataLen int) ([]byte, error) {
	if len(shards) < k {
		return nil, fmt.Errorf("%w: have %d shards, need %d", ErrTooFewShards, len(shards), k)
	}
	total := 0
	for i := 0; i < k; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("erasure: data shard %d missing in Join", i)
		}
		total += len(shards[i])
	}
	if total < dataLen {
		return nil, fmt.Errorf("%w: shards hold %d bytes, need %d", ErrShardSize, total, dataLen)
	}
	return bytes.Join(shards[:k], nil)[:dataLen:dataLen], nil
}

// packetAlign is the shard-size alignment of every stripe the store
// writes. Two things rest on it: the chunk record stores the value's
// length as the padding its K shards hold beyond it, at most 8·K, which
// fits the record's 16-bit pad (wire/chunk.go); and bench/ sizes its
// chunks with ShardSize(…, 8). Changing it changes the stored format.
const packetAlign = 8
