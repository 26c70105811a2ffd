package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// OpBatch payload layout. The batch frame is an ordinary request/response
// frame whose value carries a vector of sub-operations, so one pooled
// frame — one length prefix, one write vector, one syscall per
// direction — replaces per-key frames for the bulk APIs. Correlation is
// positional: sub-response i answers sub-request i, and the server
// always returns exactly one sub-response per sub-request.
//
// Batch request value:
//
//	u32  count (big-endian)
//	count × {
//		...  field block (reqSub, fields.go): no id, no epoch — the
//		     enclosing OpBatch frame's epoch covers every sub-op
//		...  key bytes
//		...  value bytes
//	}
//
// Batch response value:
//
//	u32  count (big-endian)
//	count × {
//		...  field block (respSub)
//		...  value bytes
//	}

const (
	// MaxBatchOps caps sub-operations per batch frame, like
	// DefaultScanLimit caps scan pages: a corrupt count field must not
	// drive a huge allocation.
	MaxBatchOps = 4096
	// BatchOverhead is the fixed payload prefix (the sub-op count).
	BatchOverhead = 4
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

// header stores r's field block in f, which is zero.
func (r *BatchReq) header(f *fields) {
	f.code, f.keyLen, f.valueLen = byte(r.Op), len(r.Key), len(r.Value)
	f.compare, f.ttl, f.meta = r.Compare, r.TTLSeconds, r.Meta
}

// EncodedSize returns the exact bytes this sub-request adds to a batch
// payload, for callers planning frame splits against MaxValueLen.
func (r *BatchReq) EncodedSize() int { return r.EncodedSizeWith(len(r.Value)) }

// EncodedSizeWith is EncodedSize for the sub-request with a value of
// valueLen bytes in place of its own: a planner whose value is wrapped
// later (a raw chunk gains its chunk header) sizes the wrapped sub-op
// with it.
func (r *BatchReq) EncodedSizeWith(valueLen int) int {
	var f fields
	r.header(&f)
	f.valueLen = valueLen
	return f.size(reqSub) + len(r.Key) + valueLen
}

// BatchResp is one sub-response of an OpBatch frame.
type BatchResp struct {
	Status     Status
	Value      []byte
	TTLSeconds uint32
	Meta       ECMeta
}

// header stores r's field block in f, which is zero.
func (r *BatchResp) header(f *fields) {
	f.code, f.valueLen, f.ttl, f.meta = byte(r.Status), len(r.Value), r.TTLSeconds, r.Meta
}

// EncodedSize returns the exact bytes this sub-response adds to a batch
// payload.
func (r *BatchResp) EncodedSize() int {
	var f fields
	r.header(&f)
	return f.size(respSub) + len(r.Value)
}

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
	}
	size := BatchRequestsSize(subs)
	if size > MaxValueLen {
		return nil, fmt.Errorf("%w: batch payload %d bytes", ErrFrameTooLarge, size)
	}
	buf = slices.Grow(buf, size) // once, not by doubling through the appends
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(subs)))
	for i := range subs {
		sub := &subs[i]
		var f fields
		sub.header(&f)
		buf = append(appendFields(buf, reqSub, &f), sub.Key...)
		buf = append(buf, sub.Value...)
	}
	return buf, nil
}

// DecodeBatchRequests parses a batch request payload. Keys and values
// alias b, as the enclosing frame's own do: the caller must finish with
// them — or clone what it keeps, a key the store installs included —
// before releasing the frame lease.
func DecodeBatchRequests(b []byte) ([]BatchReq, error) {
	count, rest, err := batchCount(b, minReqSubLen)
	if err != nil {
		return nil, err
	}
	subs := make([]BatchReq, count)
	var f fields
	for i := range subs {
		n, err := parseFields(rest, reqSub, &f)
		if err != nil {
			return nil, fmt.Errorf("batch sub-request %d: %w", i, err)
		}
		rest = rest[n:]
		if len(rest) < f.keyLen+f.valueLen {
			return nil, fmt.Errorf("%w: batch sub-request %d body truncated", ErrMalformed, i)
		}
		subs[i] = BatchReq{
			Op: Op(f.code), Key: lentString(rest[:f.keyLen]),
			TTLSeconds: f.ttl, Compare: f.compare, Meta: f.meta,
		}
		if f.valueLen > 0 {
			subs[i].Value = rest[f.keyLen : f.keyLen+f.valueLen]
		}
		rest = rest[f.keyLen+f.valueLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch requests", ErrMalformed, len(rest))
	}
	return subs, nil
}

// BatchLead returns the op of a batch request payload's first sub-request,
// 0 if it has none, without decoding the payload: a server routes by it.
func BatchLead(b []byte) Op {
	if len(b) <= BatchOverhead {
		return 0
	}
	return Op(b[BatchOverhead])
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
		if len(subs[i].Value) > MaxValueLen {
			return nil, fmt.Errorf("%w: sub-response %d value %d bytes", ErrFrameTooLarge, i, len(subs[i].Value))
		}
		size += subs[i].EncodedSize()
	}
	if size > MaxValueLen {
		return nil, fmt.Errorf("%w: batch response payload %d bytes", ErrFrameTooLarge, size)
	}
	buf = slices.Grow(buf, size) // once, not by doubling through the appends
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(subs)))
	for i := range subs {
		var f fields
		subs[i].header(&f)
		buf = append(appendFields(buf, respSub, &f), subs[i].Value...)
	}
	return buf, nil
}

// DecodeBatchResponses parses a batch response payload. Values alias
// b: callers copy out whatever escapes before releasing the frame.
func DecodeBatchResponses(b []byte) ([]BatchResp, error) {
	count, rest, err := batchCount(b, minRespSubLen)
	if err != nil {
		return nil, err
	}
	subs := make([]BatchResp, count)
	var f fields
	for i := range subs {
		n, err := parseFields(rest, respSub, &f)
		if err != nil {
			return nil, fmt.Errorf("batch sub-response %d: %w", i, err)
		}
		rest = rest[n:]
		if len(rest) < f.valueLen {
			return nil, fmt.Errorf("%w: batch sub-response %d body truncated", ErrMalformed, i)
		}
		subs[i] = BatchResp{Status: Status(f.code), TTLSeconds: f.ttl, Meta: f.meta}
		if f.valueLen > 0 {
			subs[i].Value = rest[:f.valueLen]
		}
		rest = rest[f.valueLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch responses", ErrMalformed, len(rest))
	}
	return subs, nil
}

// batchCount reads and bounds the count prefix shared by both payload
// shapes: no more than MaxBatchOps, nor than the payload could hold at
// minSub bytes a sub-op.
func batchCount(b []byte, minSub int) (int, []byte, error) {
	if len(b) < BatchOverhead {
		return 0, nil, fmt.Errorf("%w: batch payload %d bytes", ErrMalformed, len(b))
	}
	count := int(binary.BigEndian.Uint32(b[:BatchOverhead]))
	rest := b[BatchOverhead:]
	if count > MaxBatchOps || count*minSub > len(rest) {
		return 0, nil, fmt.Errorf("%w: batch count %d in %d bytes (max %d)", ErrMalformed, count, len(rest), MaxBatchOps)
	}
	return count, rest, nil
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
