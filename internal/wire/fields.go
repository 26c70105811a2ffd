package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"ecstore/internal/erasure"
)

/*
Op-shaped field blocks. Every plain frame and every OpBatch sub-op opens
with the same field block, and an optional field goes on the wire only
when it is non-zero — a GetChunk carries no compare, TTL, geometry or
total length, its answer no geometry:

	u8       op (requests) or status (responses)
	u8       mask: which optional fields follow (bits below)
	uvarint  id              plain frames only
	uvarint  keyLen          requests only
	uvarint  valueLen        batch sub-ops only: a plain frame's value
	                         is whatever frameLen leaves over
	uvarint  epoch           bit 0, plain request frames only
	u64      stripe          bit 1
	u64      compare         bit 2, requests only
	uvarint  ttlSeconds      bit 3
	u8       chunkIndex      bit 4, the geometry: all three or none
	u8       k
	u8       m
	uvarint  totalLen        bit 5
	...      key bytes       requests only
	...      value bytes

Fixed-width integers are big-endian; uvarints are encoding/binary's.
The encoding is canonical — one byte string per value — because the
decoder refuses a present field that is zero, a uvarint longer than its
value needs, and a mask bit the block's shape does not carry. It also
refuses, as ErrMalformed, a request op it does not know (or an OpBatch
inside a batch), a key or value longer than the limits, geometry no
stripe can have (K ≥ 1, K+M ≤ erasure.MaxShards, index < K+M), and an
OpEncodeSet or OpDecodeGet without geometry. So no handler sees an
impossible or missing stripe shape. OpScan's page limit travels as the
total length, not as geometry, and is not constrained.
*/

// Mask bits of a field block: the optional fields it carries.
const (
	hasEpoch byte = 1 << iota
	hasStripe
	hasCompare
	hasTTL
	hasGeometry
	hasTotalLen
)

// shape is where a field block sits, which decides what it carries
// besides the optional fields.
type shape uint8

const (
	// inFrame marks a plain frame's own block: it carries the
	// correlation id, and its value runs to the end of the frame.
	inFrame shape = 1 << iota
	// inRequest marks a request's block: an op, a key length and a key.
	inRequest
)

// The four shapes a field block has.
const (
	reqFrame  = inFrame | inRequest
	respFrame = inFrame
	reqSub    = inRequest
	respSub   = shape(0)
)

// allowed returns the mask bits a block of shape s may carry.
func (s shape) allowed() byte {
	m := hasStripe | hasTTL | hasGeometry | hasTotalLen
	if s&inRequest != 0 {
		m |= hasCompare
		if s&inFrame != 0 {
			m |= hasEpoch
		}
	}
	return m
}

// Field block sizes. The longest block carries every field at its
// widest; the frame encoders lease by it (plus the 4-byte length prefix)
// so they need not size a frame before writing it.
const (
	maxReqHeaderLen  = 2 + binary.MaxVarintLen64 + 2 + binary.MaxVarintLen64 + 8 + 8 + binary.MaxVarintLen32 + 3 + binary.MaxVarintLen32
	maxRespHeaderLen = 2 + binary.MaxVarintLen64 + 8 + binary.MaxVarintLen32 + 3 + binary.MaxVarintLen32
	minReqHeaderLen  = 2 + 1 + 1 // op, mask, id, keyLen
	minRespHeaderLen = 2 + 1     // status, mask, id
	minReqSubLen     = 2 + 1 + 1 // op, mask, keyLen, valueLen
	minRespSubLen    = 2 + 1     // status, mask, valueLen
)

// fields is one field block, decoded: a Request, Response, BatchReq or
// BatchResp without its key and value bytes. What a block's shape does
// not carry stays zero.
type fields struct {
	code     byte // op or status
	id       uint64
	keyLen   int
	valueLen int
	epoch    uint64
	compare  uint64
	ttl      uint32
	meta     ECMeta
}

// mask returns the presence bits of f's optional fields.
func (f *fields) mask() byte {
	var m byte
	if f.epoch != 0 {
		m |= hasEpoch
	}
	if f.meta.Stripe != 0 {
		m |= hasStripe
	}
	if f.compare != 0 {
		m |= hasCompare
	}
	if f.ttl != 0 {
		m |= hasTTL
	}
	if f.meta.ChunkIndex|f.meta.K|f.meta.M != 0 {
		m |= hasGeometry
	}
	if f.meta.TotalLen != 0 {
		m |= hasTotalLen
	}
	return m
}

// size returns the encoded length of f as a block of shape s.
func (f *fields) size(s shape) int {
	m := f.mask()
	n := 2
	if s&inFrame != 0 {
		n += uvarintLen(f.id)
	} else {
		n += uvarintLen(uint64(f.valueLen))
	}
	if s&inRequest != 0 {
		n += uvarintLen(uint64(f.keyLen))
	}
	if m&hasEpoch != 0 {
		n += uvarintLen(f.epoch)
	}
	if m&hasStripe != 0 {
		n += 8
	}
	if m&hasCompare != 0 {
		n += 8
	}
	if m&hasTTL != 0 {
		n += uvarintLen(uint64(f.ttl))
	}
	if m&hasGeometry != 0 {
		n += 3
	}
	if m&hasTotalLen != 0 {
		n += uvarintLen(uint64(f.meta.TotalLen))
	}
	return n
}

// appendFields appends f as a block of shape s — the one encoder of
// every frame header and batch sub-op header.
func appendFields(buf []byte, s shape, f *fields) []byte {
	m := f.mask()
	buf = append(buf, f.code, m)
	if s&inFrame != 0 {
		buf = binary.AppendUvarint(buf, f.id)
	}
	if s&inRequest != 0 {
		buf = binary.AppendUvarint(buf, uint64(f.keyLen))
	}
	if s&inFrame == 0 {
		buf = binary.AppendUvarint(buf, uint64(f.valueLen))
	}
	if m&hasEpoch != 0 {
		buf = binary.AppendUvarint(buf, f.epoch)
	}
	if m&hasStripe != 0 {
		buf = binary.BigEndian.AppendUint64(buf, f.meta.Stripe)
	}
	if m&hasCompare != 0 {
		buf = binary.BigEndian.AppendUint64(buf, f.compare)
	}
	if m&hasTTL != 0 {
		buf = binary.AppendUvarint(buf, uint64(f.ttl))
	}
	if m&hasGeometry != 0 {
		buf = append(buf, f.meta.ChunkIndex, f.meta.K, f.meta.M)
	}
	if m&hasTotalLen != 0 {
		buf = binary.AppendUvarint(buf, uint64(f.meta.TotalLen))
	}
	return buf
}

// parseFields decodes the block of shape s at the start of b into f —
// the one decoder of every frame header and batch sub-op header — and
// returns its encoded length. It checks everything the block alone can
// say (see the layout above); whether the key and value it announces fit
// is its caller's to check. Once a plain frame's id is decoded, an error
// is a *FrameError naming it.
func parseFields(b []byte, s shape, f *fields) (int, error) {
	*f = fields{}
	if len(b) < 2 {
		return 0, fieldsError(f, 0, "truncated header", false)
	}
	f.code = b[0]
	m, n := b[1], 2
	if s&inFrame != 0 {
		if f.id, n = uvarintAt(b, n); n < 0 {
			return 0, fieldsError(f, m, "truncated header", false)
		}
	}
	// Lengths and optional fields; n < 0 from here on marks a field that
	// was truncated or not canonical, and every later read fails too.
	keyLen, valueLen, ttl, totalLen := uint64(0), uint64(0), uint64(0), uint64(0)
	if s&inRequest != 0 {
		keyLen, n = uvarintAt(b, n)
	}
	if s&inFrame == 0 {
		valueLen, n = uvarintAt(b, n)
	}
	if m&hasEpoch != 0 {
		f.epoch, n = uvarintAt(b, n)
	}
	if m&hasStripe != 0 {
		f.meta.Stripe, n = u64At(b, n)
	}
	if m&hasCompare != 0 {
		f.compare, n = u64At(b, n)
	}
	if m&hasTTL != 0 {
		ttl, n = uvarintAt(b, n)
	}
	if m&hasGeometry != 0 {
		if n >= 0 && len(b)-n >= 3 {
			f.meta.ChunkIndex, f.meta.K, f.meta.M = b[n], b[n+1], b[n+2]
			n += 3
		} else {
			n = -1
		}
	}
	if m&hasTotalLen != 0 {
		totalLen, n = uvarintAt(b, n)
	}
	f.keyLen, f.valueLen, f.ttl, f.meta.TotalLen = int(keyLen), int(valueLen), uint32(ttl), uint32(totalLen)
	var why string
	op, shards := Op(f.code), int(f.meta.K)+int(f.meta.M)
	switch {
	case m&^s.allowed() != 0:
		why = "field the block cannot carry"
	case n < 0:
		why = "truncated or non-canonical field"
	case keyLen > MaxKeyLen || valueLen > MaxValueLen || ttl > math.MaxUint32 || totalLen > math.MaxUint32:
		why = "field out of range"
	case f.mask() != m: // a field on the wire is non-zero
		why = "zero field present"
	case s&inRequest != 0 && (!op.Valid() || (s&inFrame == 0 && op == OpBatch)):
		why = "unknown op"
	case m&hasGeometry != 0 && (f.meta.K == 0 || shards > erasure.MaxShards || int(f.meta.ChunkIndex) >= shards):
		why = "impossible geometry"
	case m&hasGeometry == 0 && s&inRequest != 0 && (op == OpEncodeSet || op == OpDecodeGet):
		why = "missing geometry"
	}
	if why != "" {
		return 0, fieldsError(f, m, why, s&inFrame != 0)
	}
	return n, nil
}

// fieldsError is parseFields' refusal, out of its way: a *FrameError
// when the block named its frame's id.
func fieldsError(f *fields, m byte, why string, named bool) error {
	err := fmt.Errorf("%w: %s (code %d, mask %#x, geometry index %d, k %d, m %d)",
		ErrMalformed, why, f.code, m, f.meta.ChunkIndex, f.meta.K, f.meta.M)
	if named {
		err = &FrameError{ID: f.id, Err: err}
	}
	return err
}

// uvarintAt decodes the uvarint at b[n:] and returns it with the offset
// after it, or an offset < 0 when n already is, or the uvarint is
// truncated, overflows or is longer than its value needs. The one-byte
// case — most lengths, epochs and TTLs — needs no general decode.
func uvarintAt(b []byte, n int) (uint64, int) {
	if uint(n) < uint(len(b)) {
		if c := b[n]; c < 0x80 {
			return uint64(c), n + 1
		}
	}
	return longUvarintAt(b, n)
}

func longUvarintAt(b []byte, n int) (uint64, int) {
	if uint(n) >= uint(len(b)) {
		return 0, -1
	}
	v, k := binary.Uvarint(b[n:])
	if k <= 0 || k != uvarintLen(v) {
		return 0, -1
	}
	return v, n + k
}

// u64At decodes the big-endian u64 at b[n:] like uvarintAt.
func u64At(b []byte, n int) (uint64, int) {
	if n < 0 || len(b)-n < 8 {
		return 0, -1
	}
	return binary.BigEndian.Uint64(b[n:]), n + 8
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// A FrameError is a plain frame that was read whole but whose fields do
// not parse. The stream is still in step, so a server can answer the
// request ID names with an error and read the next frame.
type FrameError struct {
	ID  uint64
	Err error
}

func (e *FrameError) Error() string { return e.Err.Error() }

// Unwrap returns the parse error, which wraps ErrMalformed.
func (e *FrameError) Unwrap() error { return e.Err }
