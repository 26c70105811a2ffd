package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ecstore/internal/bufpool"
	"ecstore/internal/gf256"
)

// Delta patch payload — the Value of an OpApplyDelta request. It
// carries the sparse XOR runs for ONE chunk of a stripe:
//
//	magic(1) shardLen(4) runCount(4)
//	runCount x [offset(4) length(4) bytes]
//	crc32(4) over everything before it
//
// shardLen is the length of the chunk the patch applies to; a holder
// whose chunk has a different shard size rejects the patch (the
// overwrite crossed a shard-size boundary and the client should not
// have taken the delta path). The trailing CRC covers the patch itself
// — transport/storage integrity for the runs. The patched chunk record's
// pad and CRC are restamped by the applier, so a record produced by
// ApplyDeltaPatch is byte-identical (header included) to one produced by
// re-encoding the new value; the new stripe is the version the caller
// stores it under.
const (
	deltaMagic      = 0xED
	deltaHeaderLen  = 1 + 4 + 4
	deltaRunHdrLen  = 4 + 4
	deltaTrailerLen = 4
)

// DeltaRun is one contiguous XOR range of a delta patch.
type DeltaRun struct {
	Offset uint32
	Data   []byte
}

// DeltaPatchSize returns the encoded size of a patch with the given
// runs — what one OpApplyDelta frame carries as its value.
func DeltaPatchSize(runs []DeltaRun) int {
	n := deltaHeaderLen + deltaTrailerLen
	for _, r := range runs {
		n += deltaRunHdrLen + len(r.Data)
	}
	return n
}

// EncodeDeltaPatch serializes a delta patch for a chunk of shardLen
// bytes.
func EncodeDeltaPatch(shardLen uint32, runs []DeltaRun) []byte {
	return encodeDeltaPatch(make([]byte, DeltaPatchSize(runs)), shardLen, runs)
}

// EncodeDeltaPatchPooled is EncodeDeltaPatch into a buffer leased from
// pool; hand it back via Request.ValuePool as with chunk payloads. A
// nil pool falls back to plain allocation.
func EncodeDeltaPatchPooled(pool *bufpool.Pool, shardLen uint32, runs []DeltaRun) []byte {
	if pool == nil {
		return EncodeDeltaPatch(shardLen, runs)
	}
	return encodeDeltaPatch(pool.GetRaw(DeltaPatchSize(runs)), shardLen, runs)
}

func encodeDeltaPatch(out []byte, shardLen uint32, runs []DeltaRun) []byte {
	out[0] = deltaMagic
	binary.BigEndian.PutUint32(out[1:5], shardLen)
	binary.BigEndian.PutUint32(out[5:9], uint32(len(runs)))
	p := deltaHeaderLen
	for _, r := range runs {
		binary.BigEndian.PutUint32(out[p:], r.Offset)
		binary.BigEndian.PutUint32(out[p+4:], uint32(len(r.Data)))
		copy(out[p+deltaRunHdrLen:], r.Data)
		p += deltaRunHdrLen + len(r.Data)
	}
	binary.BigEndian.PutUint32(out[p:], crc32.ChecksumIEEE(out[:p]))
	return out[:p+deltaTrailerLen]
}

// DecodeDeltaPatch parses and CRC-verifies a delta patch. The returned
// runs alias payload.
func DecodeDeltaPatch(payload []byte) (shardLen uint32, runs []DeltaRun, err error) {
	if len(payload) < deltaHeaderLen+deltaTrailerLen || payload[0] != deltaMagic {
		return 0, nil, fmt.Errorf("%w: not a delta patch", ErrMalformed)
	}
	body := payload[:len(payload)-deltaTrailerLen]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(payload[len(body):]) {
		return 0, nil, fmt.Errorf("%w: delta patch CRC mismatch", ErrMalformed)
	}
	shardLen = binary.BigEndian.Uint32(payload[1:5])
	count := binary.BigEndian.Uint32(payload[5:9])
	p := deltaHeaderLen
	runs = make([]DeltaRun, 0, count)
	for i := uint32(0); i < count; i++ {
		if p+deltaRunHdrLen > len(body) {
			return 0, nil, fmt.Errorf("%w: delta patch truncated at run %d", ErrMalformed, i)
		}
		off := binary.BigEndian.Uint32(body[p:])
		length := binary.BigEndian.Uint32(body[p+4:])
		p += deltaRunHdrLen
		if uint64(p)+uint64(length) > uint64(len(body)) {
			return 0, nil, fmt.Errorf("%w: delta run %d overruns patch", ErrMalformed, i)
		}
		if uint64(off)+uint64(length) > uint64(shardLen) {
			return 0, nil, fmt.Errorf("%w: delta run %d outside shard", ErrMalformed, i)
		}
		runs = append(runs, DeltaRun{Offset: off, Data: body[p : p+int(length)]})
		p += int(length)
	}
	if p != len(body) {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes in delta patch", ErrMalformed, len(body)-p)
	}
	return shardLen, runs, nil
}

// ApplyDeltaPatch applies an encoded patch to a stored chunk payload in
// place, enforcing the invariants that make a mixed-version stripe
// impossible to commit through the delta path:
//
//   - the stored payload must be a well-formed chunk whose CRC matches
//     (a corrupt base would silently poison the whole stripe);
//   - its geometry (index, K, M) must match the request's, and its
//     shard length the patch's — a patch built for a different layout
//     never touches the chunk;
//   - every run must fall inside the chunk;
//   - meta's total length must fit the chunk (a pad of 0 to 65 535): it
//     comes from a peer.
//
// On success the chunk bytes are XOR-patched and the header restamped
// with the pad of meta's total length and a freshly computed CRC —
// byte-identical to the record a full re-encode of the new value would
// store. A refused patch leaves stored untouched. Installing the record
// under meta's stripe, and the version-conditional swap (did any
// concurrent write move the chunk since it was read?), are the caller's
// job.
func ApplyDeltaPatch(stored []byte, patch []byte, meta ECMeta) error {
	m, chunk, err := DecodeChunkPayload(stored)
	if err != nil {
		return err
	}
	if m.ChunkIndex != meta.ChunkIndex || m.K != meta.K || m.M != meta.M {
		return fmt.Errorf("%w: delta geometry mismatch: stored %d/%d+%d, patch %d/%d+%d",
			ErrMalformed, m.ChunkIndex, m.K, m.M, meta.ChunkIndex, meta.K, meta.M)
	}
	shardLen, runs, err := DecodeDeltaPatch(patch)
	if err != nil {
		return err
	}
	if int(shardLen) != len(chunk) {
		return fmt.Errorf("%w: delta for %d-byte shard, chunk has %d", ErrMalformed, shardLen, len(chunk))
	}
	pad, ok := chunkPad(meta, len(chunk))
	if !ok {
		return fmt.Errorf("%w: delta to a %d-byte value, which %d shards of %d bytes cannot hold",
			ErrMalformed, meta.TotalLen, meta.K, len(chunk))
	}
	for _, r := range runs {
		dst := chunk[r.Offset : int(r.Offset)+len(r.Data)] // bounds proven by DecodeDeltaPatch
		gf256.AddSlice(r.Data, dst)
	}
	binary.BigEndian.PutUint16(stored[4:6], pad)
	binary.BigEndian.PutUint32(stored[6:10], crc32.ChecksumIEEE(chunk))
	return nil
}

// ChunkPayloadOverhead is the header size a chunk record adds on top of
// the shard bytes (10: see chunkHeaderLen) — exported so clients can
// account wire bytes without re-deriving the layout.
const ChunkPayloadOverhead = chunkHeaderLen
