package erasure

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ecstore/internal/gf256"
)

// ErrDeltaShape is returned by EncodeDelta when the old and new values
// do not share a shard layout (different shard sizes for the code's K),
// so a linear per-chunk patch cannot express the overwrite and the
// caller must fall back to a full re-stripe.
var ErrDeltaShape = errors.New("erasure: old and new values have different shard layouts")

// EncodeDelta encodes the XOR difference between two versions of a
// value into K+M delta shards. Reed-Solomon over GF(256) is linear, so
// encode(new) = encode(old) XOR encode(new XOR old): a server holding a
// chunk of the old stripe can XOR the matching delta shard onto it —
// data and parity chunks alike — and end up holding exactly the chunk a
// full re-encode of the new value would have produced.
//
// The data shards are built directly as (new XOR old) per segment, with
// both values zero-padded to the common shard size; the parity delta
// shards come from running the code's normal Encode over those data
// deltas. Both values must round to the same shard size for the code's
// K, otherwise ErrDeltaShape is returned.
//
// Shard buffers are drawn from pool (DefaultPool when nil); the caller
// must Release the returned set once the delta runs have been
// serialized.
func EncodeDelta(code *RSVan, oldValue, newValue []byte, pool *BufferPool) (*PooledShards, error) {
	k, m := code.K(), code.M()
	per := ShardSize(len(newValue), k, packetAlign)
	if ShardSize(len(oldValue), k, packetAlign) != per {
		return nil, fmt.Errorf("%w: %d -> %d bytes (K=%d)", ErrDeltaShape, len(oldValue), len(newValue), k)
	}
	if pool == nil {
		pool = DefaultPool
	}
	ps := newPooledShards(k+m, pool)
	for i := 0; i < k; i++ {
		s := pool.GetRaw(per)
		lo := i * per
		n := 0
		if lo < len(newValue) {
			n = copy(s, newValue[lo:])
		}
		clear(s[n:]) // zero the padding a raw pool buffer may carry
		if lo < len(oldValue) {
			seg := oldValue[lo:]
			if len(seg) > per {
				seg = seg[:per]
			}
			// s ^= old segment; the zero padding beyond either value's
			// tail XORs to the other's bytes, exactly as Split would pad.
			gf256.AddSlice(seg, s[:len(seg)])
		}
		ps.Shards[i] = s
	}
	if err := code.Encode(ps.Shards); err != nil {
		ps.Release()
		return nil, err
	}
	return ps, nil
}

// DeltaRun is one contiguous non-zero range of a delta shard: Data
// holds the XOR bytes to apply at Offset. Runs returned by NonzeroRuns
// alias the scanned shard — serialize them before releasing it.
type DeltaRun struct {
	Offset int
	Data   []byte
}

// DefaultRunMergeGap is the zero-gap below which NonzeroRuns merges two
// adjacent non-zero ranges into one run: carrying a few literal zeros
// is cheaper than another run header on the wire.
const DefaultRunMergeGap = 16

// NonzeroRuns extracts the sparse offset/length runs of a delta shard:
// every non-zero byte is covered by exactly one run, runs are in
// ascending offset order, and ranges separated by fewer than mergeGap
// zero bytes are coalesced (mergeGap <= 0 uses DefaultRunMergeGap). A
// small edit to a large value yields near-empty delta shards, so this
// is what turns a linear patch into a few bytes on the wire. The
// returned runs alias shard.
func NonzeroRuns(shard []byte, mergeGap int) []DeltaRun {
	if mergeGap <= 0 {
		mergeGap = DefaultRunMergeGap
	}
	var runs []DeltaRun
	i := 0
	for i < len(shard) {
		// Skip zeros a word at a time: delta shards are mostly zero.
		for i+8 <= len(shard) && binary.LittleEndian.Uint64(shard[i:]) == 0 {
			i += 8
		}
		for i < len(shard) && shard[i] == 0 {
			i++
		}
		if i == len(shard) {
			break
		}
		start, last := i, i
		for j := i + 1; j < len(shard) && j-last <= mergeGap; j++ {
			if shard[j] != 0 {
				last = j
			}
		}
		runs = append(runs, DeltaRun{Offset: start, Data: shard[start : last+1]})
		i = last + 1 + mergeGap
	}
	return runs
}

// ApplyRuns XORs runs onto shard in place — the server-side half of a
// delta write, shared with tests. It fails if any run falls outside the
// shard.
func ApplyRuns(shard []byte, runs []DeltaRun) error {
	for _, r := range runs {
		if r.Offset < 0 || r.Offset+len(r.Data) > len(shard) {
			return fmt.Errorf("erasure: delta run [%d,%d) outside shard of %d bytes",
				r.Offset, r.Offset+len(r.Data), len(shard))
		}
		gf256.AddSlice(r.Data, shard[r.Offset:r.Offset+len(r.Data)])
	}
	return nil
}
