package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// OpBatch payload layout (all integers big-endian). The batch frame is
// an ordinary request/response frame whose value carries a vector of
// sub-operations, so one pooled frame — one length prefix, one write
// vector, one syscall per direction — replaces per-key frames for the
// bulk APIs. Correlation is positional: sub-response i answers
// sub-request i, and the server always returns exactly one
// sub-response per sub-request.
//
// Batch request value:
//	u32  count
//	count × {
//		u8   op
//		u16  keyLen
//		u8   chunkIndex
//		u8   k
//		u8   m
//		u32  totalLen
//		u64  stripe
//		u32  ttlSeconds
//		u64  compare
//		u32  valueLen
//		...  key bytes
//		...  value bytes
//	}
//
// Batch response value:
//	u32  count
//	count × {
//		u8   status
//		u8   chunkIndex
//		u8   k
//		u8   m
//		u32  totalLen
//		u64  stripe
//		u32  ttlSeconds
//		u32  valueLen
//		...  value bytes
//	}

const (
	// MaxBatchOps caps sub-operations per batch frame, like
	// MaxScanLimit caps scan pages: a corrupt count field must not
	// drive a huge allocation.
	MaxBatchOps = 4096
	// BatchOverhead is the fixed payload prefix (the sub-op count).
	BatchOverhead = 4
	// Per-sub fixed headers. Sub-requests carry no correlation ID
	// (correlation is positional within one frame) and no epoch (the
	// enclosing OpBatch frame's epoch covers every sub-op), so these
	// are independent of the top-level header sizes.
	batchReqFixed  = 1 + 2 + 1 + 1 + 1 + 4 + 8 + 4 + 8 + 4
	batchRespFixed = respHeaderLen - 8
)

// BatchReq is one sub-request of an OpBatch frame: a Request without
// the correlation ID (positional) or a value pool (the batch encoder
// copies sub-values into the shared frame payload).
type BatchReq struct {
	Op         Op
	Key        string
	Value      []byte
	TTLSeconds uint32
	Compare    uint64
	Meta       ECMeta
}

// EncodedSize returns the bytes this sub-request adds to a batch
// payload, for callers planning frame splits against MaxValueLen.
func (r *BatchReq) EncodedSize() int { return batchReqFixed + len(r.Key) + len(r.Value) }

// BatchResp is one sub-response of an OpBatch frame.
type BatchResp struct {
	Status     Status
	Value      []byte
	TTLSeconds uint32
	Meta       ECMeta
}

// EncodedSize returns the bytes this sub-response adds to a batch
// payload.
func (r *BatchResp) EncodedSize() int { return batchRespFixed + len(r.Value) }

// BatchRequestsSize returns the encoded payload size of subs, the
// quantity frame planners compare against MaxValueLen.
func BatchRequestsSize(subs []BatchReq) int {
	size := BatchOverhead
	for i := range subs {
		size += subs[i].EncodedSize()
	}
	return size
}

// AppendBatchRequests serializes subs onto buf and returns the
// extended slice. Each sub is validated against the per-op limits;
// nested batches are rejected (a batch inside a batch has no framing
// justification and would let a hostile payload nest allocations).
// The total encoded payload must fit a single frame value.
func AppendBatchRequests(buf []byte, subs []BatchReq) ([]byte, error) {
	if len(subs) > MaxBatchOps {
		return nil, fmt.Errorf("%w: %d sub-requests (max %d)", ErrFrameTooLarge, len(subs), MaxBatchOps)
	}
	if size := BatchRequestsSize(subs); size > MaxValueLen {
		return nil, fmt.Errorf("%w: batch payload %d bytes", ErrFrameTooLarge, size)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(subs)))
	for i := range subs {
		sub := &subs[i]
		if !sub.Op.Valid() || sub.Op == OpBatch {
			return nil, fmt.Errorf("%w: sub-request %d op %v not batchable", ErrMalformed, i, sub.Op)
		}
		if len(sub.Key) > MaxKeyLen {
			return nil, fmt.Errorf("%w: sub-request %d key %d bytes", ErrFrameTooLarge, i, len(sub.Key))
		}
		if len(sub.Value) > MaxValueLen {
			return nil, fmt.Errorf("%w: sub-request %d value %d bytes", ErrFrameTooLarge, i, len(sub.Value))
		}
		buf = append(buf, byte(sub.Op))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(sub.Key)))
		buf = append(buf, sub.Meta.ChunkIndex, sub.Meta.K, sub.Meta.M)
		buf = binary.BigEndian.AppendUint32(buf, sub.Meta.TotalLen)
		buf = binary.BigEndian.AppendUint64(buf, sub.Meta.Stripe)
		buf = binary.BigEndian.AppendUint32(buf, sub.TTLSeconds)
		buf = binary.BigEndian.AppendUint64(buf, sub.Compare)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(sub.Value)))
		buf = append(buf, sub.Key...)
		buf = append(buf, sub.Value...)
	}
	return buf, nil
}

// DecodeBatchRequests parses a batch request payload. Keys and values
// alias b, as the enclosing frame's own do: the caller must finish with
// them — or clone what it keeps, a key the store installs included —
// before releasing the frame lease.
func DecodeBatchRequests(b []byte) ([]BatchReq, error) {
	count, rest, err := batchCount(b)
	if err != nil {
		return nil, err
	}
	subs := make([]BatchReq, count)
	for i := range subs {
		if len(rest) < batchReqFixed {
			return nil, fmt.Errorf("%w: batch sub-request %d truncated", ErrMalformed, i)
		}
		sub := &subs[i]
		sub.Op = Op(rest[0])
		keyLen := int(binary.BigEndian.Uint16(rest[1:3]))
		sub.Meta = ECMeta{
			ChunkIndex: rest[3],
			K:          rest[4],
			M:          rest[5],
			TotalLen:   binary.BigEndian.Uint32(rest[6:10]),
			Stripe:     binary.BigEndian.Uint64(rest[10:18]),
		}
		sub.TTLSeconds = binary.BigEndian.Uint32(rest[18:22])
		sub.Compare = binary.BigEndian.Uint64(rest[22:30])
		valueLen := int(binary.BigEndian.Uint32(rest[30:34]))
		if !sub.Op.Valid() || sub.Op == OpBatch || keyLen > MaxKeyLen || valueLen > MaxValueLen {
			return nil, fmt.Errorf("%w: batch sub-request %d header", ErrMalformed, i)
		}
		rest = rest[batchReqFixed:]
		if len(rest) < keyLen+valueLen {
			return nil, fmt.Errorf("%w: batch sub-request %d body truncated", ErrMalformed, i)
		}
		sub.Key = lentString(rest[:keyLen])
		if valueLen > 0 {
			sub.Value = rest[keyLen : keyLen+valueLen]
		}
		rest = rest[keyLen+valueLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch requests", ErrMalformed, len(rest))
	}
	return subs, nil
}

// AppendBatchResponses serializes subs onto buf and returns the
// extended slice. The total payload must fit a single frame value —
// callers whose aggregate response outgrows the frame report a
// whole-frame error instead, and the client re-sends in smaller
// batches.
func AppendBatchResponses(buf []byte, subs []BatchResp) ([]byte, error) {
	if len(subs) > MaxBatchOps {
		return nil, fmt.Errorf("%w: %d sub-responses (max %d)", ErrFrameTooLarge, len(subs), MaxBatchOps)
	}
	size := BatchOverhead
	for i := range subs {
		size += subs[i].EncodedSize()
	}
	if size > MaxValueLen {
		return nil, fmt.Errorf("%w: batch response payload %d bytes", ErrFrameTooLarge, size)
	}
	buf = slices.Grow(buf, size) // once, not by doubling through the appends
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(subs)))
	for i := range subs {
		sub := &subs[i]
		if len(sub.Value) > MaxValueLen {
			return nil, fmt.Errorf("%w: sub-response %d value %d bytes", ErrFrameTooLarge, i, len(sub.Value))
		}
		buf = append(buf, byte(sub.Status))
		buf = append(buf, sub.Meta.ChunkIndex, sub.Meta.K, sub.Meta.M)
		buf = binary.BigEndian.AppendUint32(buf, sub.Meta.TotalLen)
		buf = binary.BigEndian.AppendUint64(buf, sub.Meta.Stripe)
		buf = binary.BigEndian.AppendUint32(buf, sub.TTLSeconds)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(sub.Value)))
		buf = append(buf, sub.Value...)
	}
	return buf, nil
}

// DecodeBatchResponses parses a batch response payload. Values alias
// b: callers copy out whatever escapes before releasing the frame.
func DecodeBatchResponses(b []byte) ([]BatchResp, error) {
	count, rest, err := batchCount(b)
	if err != nil {
		return nil, err
	}
	subs := make([]BatchResp, count)
	for i := range subs {
		if len(rest) < batchRespFixed {
			return nil, fmt.Errorf("%w: batch sub-response %d truncated", ErrMalformed, i)
		}
		sub := &subs[i]
		sub.Status = Status(rest[0])
		sub.Meta = ECMeta{
			ChunkIndex: rest[1],
			K:          rest[2],
			M:          rest[3],
			TotalLen:   binary.BigEndian.Uint32(rest[4:8]),
			Stripe:     binary.BigEndian.Uint64(rest[8:16]),
		}
		sub.TTLSeconds = binary.BigEndian.Uint32(rest[16:20])
		valueLen := int(binary.BigEndian.Uint32(rest[20:24]))
		if valueLen > MaxValueLen {
			return nil, fmt.Errorf("%w: batch sub-response %d header", ErrMalformed, i)
		}
		rest = rest[batchRespFixed:]
		if len(rest) < valueLen {
			return nil, fmt.Errorf("%w: batch sub-response %d body truncated", ErrMalformed, i)
		}
		if valueLen > 0 {
			sub.Value = rest[:valueLen]
		}
		rest = rest[valueLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch responses", ErrMalformed, len(rest))
	}
	return subs, nil
}

// batchCount reads and bounds the count prefix shared by both payload
// shapes.
func batchCount(b []byte) (int, []byte, error) {
	if len(b) < BatchOverhead {
		return 0, nil, fmt.Errorf("%w: batch payload %d bytes", ErrMalformed, len(b))
	}
	count := int(binary.BigEndian.Uint32(b[:BatchOverhead]))
	if count > MaxBatchOps {
		return 0, nil, fmt.Errorf("%w: batch count %d (max %d)", ErrMalformed, count, MaxBatchOps)
	}
	return count, b[BatchOverhead:], nil
}

// Err converts a sub-response status into a Go error, mirroring
// Response.Err (nil for StatusOK, typed sentinels where they exist,
// the carried message for StatusError).
func (r *BatchResp) Err() error {
	switch r.Status {
	case StatusOK:
		return nil
	case StatusNotFound:
		return ErrNotFound
	case StatusOutOfMemory:
		return ErrOutOfMemory
	case StatusExists:
		return ErrExists
	case StatusWrongEpoch:
		return ErrWrongEpoch
	default:
		return fmt.Errorf("wire: server error: %s", r.Value)
	}
}
