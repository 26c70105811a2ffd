package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/erasure"
)

// lastStripe is the last stripe ID this process minted.
var lastStripe atomic.Uint64

// NewStripeID mints a stripe identifier for one logical write: the
// nanoseconds since 2020, so later writes usually carry higher IDs and
// win last-write-wins ties, and strictly above every ID this process
// minted before, so no two of its writes share one. Two processes mint
// one ID only in the same nanosecond.
func NewStripeID() uint64 {
	id := StripeIDAt(time.Now())
	for {
		last := lastStripe.Load()
		if id <= last {
			id = last + 1
		}
		if lastStripe.CompareAndSwap(last, id) {
			return id
		}
	}
}

// stripeEpoch is the zero of stripe IDs.
var stripeEpoch = time.Date(2020, time.January, 1, 0, 0, 0, 0, time.UTC).Unix()

// StripeIDAt is the clock part of a stripe ID minted at t: the
// nanoseconds since stripeEpoch, which fill 64 bits about 584 years
// after it.
func StripeIDAt(t time.Time) uint64 {
	return uint64(t.Unix()-stripeEpoch)*uint64(time.Second) + uint64(t.Nanosecond())
}

// chunkMagic marks a chunk record.
const chunkMagic = 0xEC

// A chunk record — what a chunk holder stores under a chunk key — is a
// fixed header, then the shard:
//
//	u8   magic 0xEC
//	u8   chunk index
//	u8   K
//	u8   M
//	u16  pad: K·len(shard) − the value's length
//	u32  CRC32 (IEEE) of the shard
//	...  the shard
//
// It keeps only what its item does not already say. The item's key
// names the logical key and the chunk index, and its version is the
// stripe ID of the write, so the record carries no stripe. The value's
// length travels as the padding the K shards hold beyond it: shards are
// erasure.packetAlign aligned, so the pad is at most 8·K ≤ 2 040 and
// fits 16 bits. Fixed-width integers are big-endian.
const chunkHeaderLen = 10

// ChunkPayloadOverhead is the header size a chunk record adds on top of
// the shard bytes — exported so clients can account wire bytes without
// re-deriving the layout.
const ChunkPayloadOverhead = chunkHeaderLen

// ErrChunkCorrupt is returned by DecodeChunkPayload when the stored
// CRC does not match the chunk bytes — silent corruption that the
// erasure code can then repair from parity.
var ErrChunkCorrupt = fmt.Errorf("%w: chunk CRC mismatch", ErrMalformed)

// EncodeChunkPayload makes the chunk record of chunk, so any server or
// recovering client can interpret a stored chunk with its item's key
// and version: chunk index, K, M, the pad that gives back the value's
// length, and a CRC32 of the chunk bytes for end-to-end corruption
// detection. meta.Stripe is not recorded: it is the version the record
// is stored under. A meta whose value length the chunk cannot hold
// (pad < 0 or > 65 535) is a caller's bug, and panics; no split
// produces one.
func EncodeChunkPayload(meta ECMeta, chunk []byte) []byte {
	return encodeChunkPayload(make([]byte, chunkHeaderLen+len(chunk)), meta, chunk)
}

// EncodeChunkPayloadPooled is EncodeChunkPayload into a buffer leased
// from pool. The caller owns the returned buffer and hands it back —
// typically by setting Request.ValuePool so the wire layer releases it
// once the frame is written. A nil pool falls back to plain allocation.
func EncodeChunkPayloadPooled(pool *bufpool.Pool, meta ECMeta, chunk []byte) []byte {
	if pool == nil {
		return EncodeChunkPayload(meta, chunk)
	}
	return encodeChunkPayload(pool.GetRaw(chunkHeaderLen+len(chunk)), meta, chunk)
}

func encodeChunkPayload(out []byte, meta ECMeta, chunk []byte) []byte {
	pad, ok := chunkPad(meta, len(chunk))
	if !ok {
		panic(fmt.Sprintf("wire: a %d-byte value does not fit %d shards of %d bytes", meta.TotalLen, meta.K, len(chunk)))
	}
	out[0] = chunkMagic
	out[1] = meta.ChunkIndex
	out[2] = meta.K
	out[3] = meta.M
	binary.BigEndian.PutUint16(out[4:6], pad)
	binary.BigEndian.PutUint32(out[6:10], crc32.ChecksumIEEE(chunk))
	copy(out[chunkHeaderLen:], chunk)
	return out
}

// chunkPad returns the pad of a record whose shard of n bytes belongs to
// a value of meta.TotalLen bytes split meta.K ways, and whether it fits
// the record's 16 bits.
func chunkPad(meta ECMeta, n int) (uint16, bool) {
	pad := int64(meta.K)*int64(n) - int64(meta.TotalLen)
	if pad < 0 || pad > math.MaxUint16 {
		return 0, false
	}
	return uint16(pad), true
}

// DecodeChunkPayload splits a chunk record into its metadata and chunk
// bytes, checking the geometry, the pad and the CRC. The record does not
// carry the stripe: the returned meta's Stripe is zero, and the caller
// sets it from the version the record was read with (a read answer's
// Meta.Stripe, the store's item version). The returned chunk aliases
// payload.
func DecodeChunkPayload(payload []byte) (ECMeta, []byte, error) {
	if len(payload) < chunkHeaderLen || payload[0] != chunkMagic {
		return ECMeta{}, nil, fmt.Errorf("%w: not a chunk payload", ErrMalformed)
	}
	meta := ECMeta{ChunkIndex: payload[1], K: payload[2], M: payload[3]}
	chunk := payload[chunkHeaderLen:]
	pad := uint64(binary.BigEndian.Uint16(payload[4:6]))
	whole := uint64(meta.K) * uint64(len(chunk))
	if meta.K == 0 || int(meta.ChunkIndex) >= int(meta.K)+int(meta.M) || pad > whole || whole-pad > math.MaxUint32 {
		return ECMeta{}, nil, fmt.Errorf("%w: inconsistent chunk record: index %d, K %d, M %d, pad %d of %d shard bytes",
			ErrMalformed, meta.ChunkIndex, meta.K, meta.M, pad, whole)
	}
	meta.TotalLen = uint32(whole - pad)
	if crc32.ChecksumIEEE(chunk) != binary.BigEndian.Uint32(payload[6:10]) {
		return ECMeta{}, nil, ErrChunkCorrupt
	}
	return meta, chunk, nil
}

// ChunkKey derives the storage key for chunk idx of key. Replication
// reuses it with the replica index.
func ChunkKey(key string, idx int) string {
	return key + chunkKeySep + strconv.Itoa(idx)
}

// ChunkRef is a request's chunk field: it names one chunk of the
// request's Key, whose storage key — ChunkKey(Key, idx) — the frame
// encoder writes in place of Key, so a sender never builds it. The
// zero ChunkRef means a plain key. A request read off the wire always
// carries the zero ChunkRef and its whole storage key.
type ChunkRef uint16

// ChunkOf returns the ChunkRef naming chunk idx, which is below 256.
func ChunkOf(idx int) ChunkRef { return ChunkRef(idx + 1) }

// keyLen returns the length of key's storage key under c.
func (c ChunkRef) keyLen(key string) int {
	if c == 0 {
		return len(key)
	}
	n := len(key) + len(chunkKeySep) + 1
	for idx := c - 1; idx >= 10; idx /= 10 {
		n++
	}
	return n
}

// appendKey appends key's storage key under c to buf: key itself, or
// ChunkKey(key, idx) byte for byte for the chunk c names.
func (c ChunkRef) appendKey(buf []byte, key string) []byte {
	buf = append(buf, key...)
	if c == 0 {
		return buf
	}
	return strconv.AppendUint(append(buf, chunkKeySep...), uint64(c-1), 10)
}

// inlineChunks is how many chunks a stripe group holds without
// allocating: K+M at the usual geometries.
const inlineChunks = 8

// ChunkCollector groups fetched chunks by stripe so decoding never
// mixes chunks from different writes of the same key. With concurrent
// writers, a key's chunk set can transiently hold a blend of stripes;
// the collector selects one complete (>= K chunks) stripe — preferring
// the most complete group, then the highest stripe ID (approximate
// last-write-wins). It is a plain value: a read that collects for many
// keys keeps one per key in a slice. The first stripe seen — the only
// one, without a concurrent writer — lives in the collector itself, so
// collecting a quiet key of up to inlineChunks chunks allocates nothing.
type ChunkCollector struct {
	k, n   int
	used   int           // stripe groups in use: first, then others
	first  StripeGroup   // the first stripe seen
	others []StripeGroup // further stripes: one per concurrent write
}

// StripeGroup is what one stripe (one write) of a key has shown so
// far.
type StripeGroup struct {
	Stripe   uint64
	TotalLen uint32
	// TTL is the remaining lifetime in seconds reported by the holder
	// of the first chunk seen, so the winning stripe's lifetime rides
	// along with the value.
	TTL   uint32
	count int
	n     int
	// The chunks by index: inline while they fit, spilled beyond. The
	// group hands out a slice on request (Chunks) rather than keeping one
	// into itself, so groups and collectors stay copyable values.
	inline  [inlineChunks][]byte
	spilled [][]byte
}

// Chunks returns the group's chunks by index, length n with nil entries
// for chunks not fetched, ready for Reconstruct. The slice aliases the
// group: writes to it (a reconstruction filling the gaps) are kept.
func (g *StripeGroup) Chunks() [][]byte {
	if g.spilled != nil {
		return g.spilled
	}
	return g.inline[:g.n]
}

// NewChunkCollector returns a collector for an RS stripe of k data
// chunks out of n total.
func NewChunkCollector(k, n int) ChunkCollector {
	return ChunkCollector{k: k, n: n}
}

// group returns stripe group i of the c.used in use.
func (c *ChunkCollector) group(i int) *StripeGroup {
	if i == 0 {
		return &c.first
	}
	return &c.others[i-1]
}

// Add records a fetched chunk and the remaining TTL its holder
// reported. Chunks of another geometry than the collector's K and K+M,
// or with an index outside [0, n), are ignored: the record's CRC covers
// only its shard, so a flipped K would otherwise give the stripe a
// length its shards cannot hold.
func (c *ChunkCollector) Add(meta ECMeta, chunk []byte, ttl uint32) {
	idx := int(meta.ChunkIndex)
	if idx >= c.n || int(meta.K) != c.k || int(meta.K)+int(meta.M) != c.n {
		return
	}
	var g *StripeGroup
	for i := 0; i < c.used && g == nil; i++ {
		if have := c.group(i); have.Stripe == meta.Stripe {
			g = have
		}
	}
	if g == nil {
		if c.used > 0 {
			c.others = append(c.others, StripeGroup{})
		}
		c.used++
		g = c.group(c.used - 1)
		*g = StripeGroup{Stripe: meta.Stripe, TotalLen: meta.TotalLen, TTL: ttl, n: c.n}
		if c.n > inlineChunks {
			g.spilled = make([][]byte, c.n)
		}
	}
	if chunks := g.Chunks(); chunks[idx] == nil {
		chunks[idx] = chunk
		g.count++
	}
}

// Best returns the winning stripe — the one with the most chunks among
// those holding at least K, ties to the highest stripe ID — or nil when
// no stripe is decodable yet. The group stays valid until the next Add.
func (c *ChunkCollector) Best() *StripeGroup {
	var best *StripeGroup
	for i := 0; i < c.used; i++ {
		g := c.group(i)
		if g.count >= c.k && (best == nil || g.count > best.count || (g.count == best.count && g.Stripe > best.Stripe)) {
			best = g
		}
	}
	return best
}

// Holds reports whether any stripe group holds chunk i: whether the
// location of position i yielded a chunk at all, of whichever write.
func (c *ChunkCollector) Holds(i int) bool {
	for g := 0; g < c.used; g++ {
		if c.group(g).Chunks()[i] != nil {
			return true
		}
	}
	return false
}

// NextRound returns the chunk positions a read should ask for next,
// given the ones it has asked for and the ones whose holders it would
// rather not ask (skip): none once a stripe has K chunks or every
// position has been asked. The first round asks K positions: the data
// positions skip leaves out, then such parity positions, then skipped
// ones. The second asks K less what the most complete stripe holds,
// positions skip leaves out first; the third every position left. A
// read that ends undecodable has therefore asked all n positions.
//
// At K <= n-K two stripes could both reach K, and Best's tie rule must
// see both: there the first round is the data positions whatever skip
// says, and the second asks every parity position. n <= erasure.MaxShards.
func (c *ChunkCollector) NextRound(asked, skip erasure.ShardSet) erasure.ShardSet {
	var want erasure.ShardSet
	if c.Best() != nil {
		return want
	}
	askedN := 0
	for i := 0; i < c.n; i++ {
		if asked.Has(i) {
			askedN++
		}
	}
	need := c.k - c.fullest() // K in the first round: nothing collected yet
	atMostM := c.k <= c.n-c.k
	switch {
	case askedN == 0 && atMostM:
		skip = erasure.ShardSet{}
	case askedN > c.k, askedN > 0 && atMostM:
		need = c.n
	}
	for _, skipped := range [2]bool{false, true} {
		for i := 0; i < c.n && need > 0; i++ {
			if !asked.Has(i) && !want.Has(i) && skip.Has(i) == skipped {
				want.Add(i)
				need--
			}
		}
	}
	return want
}

// fullest returns how many chunks the most complete stripe holds.
func (c *ChunkCollector) fullest() int {
	most := 0
	for i := 0; i < c.used; i++ {
		most = max(most, c.group(i).count)
	}
	return most
}

// Seen returns the number of chunks accepted across all stripes.
func (c *ChunkCollector) Seen() int {
	total := 0
	for i := 0; i < c.used; i++ {
		total += c.group(i).count
	}
	return total
}
