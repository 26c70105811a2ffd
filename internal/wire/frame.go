package wire

import "ecstore/internal/bufpool"

// FrameInlineThreshold is the value size at or below which the frame
// encoder copies the value into the (pooled) header buffer so the
// whole frame is one contiguous vector. Larger values are carried as a
// second scatter-gather vector and never copied: a 1 MB chunk write
// costs a field block of a few dozen bytes, not a 1 MB memcpy.
const FrameInlineThreshold = 4 << 10

// Frame is one encoded wire frame ready for transmission: a pooled
// header vector (length prefix, field block, key, and any inlined
// value) plus an optional value vector aliasing the caller's payload.
// Frames are produced by EncodeRequestFrame/EncodeResponseFrame,
// written by a FrameQueue, and returned to their pool
// with Release — exactly once, by whoever owns the frame when it is
// written or abandoned.
type Frame struct {
	hdr, val         []byte
	hdrPool, valPool *bufpool.Pool
}

// Vectors returns the frame's wire vectors: the header (never empty)
// and the non-inlined value (nil when the value was inlined or absent).
func (f *Frame) Vectors() ([]byte, []byte) { return f.hdr, f.val }

// Release returns the frame's pooled buffers. Idempotent; the frame
// must not be written after Release.
func (f *Frame) Release() {
	if f.hdrPool != nil {
		f.hdrPool.Put(f.hdr)
		f.hdrPool = nil
	}
	if f.valPool != nil {
		f.valPool.Put(f.val)
		f.valPool = nil
	}
	f.hdr, f.val = nil, nil
}

// EncodeRequestFrame encodes req into a Frame whose header buffer is
// leased from pool. Values at or below FrameInlineThreshold are copied
// into the header buffer; larger values alias req.Value as a second
// vector. If req.ValuePool is set, ownership of the value lease
// transfers to the frame: an inlined value is released immediately
// (it has been copied), a vectored one is released by Frame.Release
// after the frame is written or abandoned. The header buffer is leased
// by the longest field block, so nothing sizes the frame beforehand. A
// nil pool allocates plainly (the frame still works; Release is then a
// partial no-op).
func EncodeRequestFrame(pool *bufpool.Pool, req *Request) (Frame, error) {
	if err := checkRequestSize(req); err != nil {
		req.ReleaseValue()
		return Frame{}, err
	}
	var h fields
	req.header(&h)
	inline := len(req.Value) <= FrameInlineThreshold
	hdrLen := 4 + maxReqHeaderLen + h.keyLen
	if inline {
		hdrLen += len(req.Value)
	}
	f := Frame{hdr: getRawFrom(pool, hdrLen), hdrPool: pool}
	f.hdr = req.Chunk.appendKey(appendFrameHeader(f.hdr[:0], reqFrame, &h, h.keyLen+len(req.Value)), req.Key)
	if inline {
		f.hdr = append(f.hdr, req.Value...)
		req.ReleaseValue()
	} else {
		f.val = req.Value
		f.valPool = req.ValuePool
		req.ValuePool = nil
	}
	return f, nil
}

// EncodeResponseFrame is EncodeRequestFrame for responses. Response
// values are always owned by the response (never pool-leased), so the
// value vector is aliased without a transfer of ownership.
func EncodeResponseFrame(pool *bufpool.Pool, resp *Response) (Frame, error) {
	if len(resp.Value) > MaxValueLen {
		return Frame{}, ErrFrameTooLarge
	}
	inline := len(resp.Value) <= FrameInlineThreshold
	hdrLen := 4 + maxRespHeaderLen
	if inline {
		hdrLen += len(resp.Value)
	}
	f := Frame{hdr: getRawFrom(pool, hdrLen), hdrPool: pool}
	var h fields
	resp.header(&h)
	f.hdr = appendFrameHeader(f.hdr[:0], respFrame, &h, len(resp.Value))
	if inline {
		f.hdr = append(f.hdr, resp.Value...)
	} else {
		f.val = resp.Value
	}
	return f, nil
}

// getRawFrom leases n bytes from pool, or allocates when pool is nil.
func getRawFrom(pool *bufpool.Pool, n int) []byte {
	if pool == nil {
		return make([]byte, n)
	}
	return pool.GetRaw(n)
}
