package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestDeltaPatchRoundTrip(t *testing.T) {
	cases := [][]DeltaRun{
		nil, // empty patch: an untouched shard still bumps its stripe
		{{Offset: 0, Data: []byte{1}}},
		{{Offset: 7, Data: []byte("abc")}, {Offset: 100, Data: bytes.Repeat([]byte{9}, 50)}},
		{{Offset: 4090, Data: []byte{0xFF, 0, 0xFF}}},
	}
	for i, runs := range cases {
		payload := EncodeDeltaPatch(4096, runs)
		if len(payload) != DeltaPatchSize(runs) {
			t.Fatalf("case %d: encoded %d bytes, DeltaPatchSize says %d", i, len(payload), DeltaPatchSize(runs))
		}
		shardLen, got, err := DecodeDeltaPatch(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if shardLen != 4096 {
			t.Fatalf("case %d: shardLen %d", i, shardLen)
		}
		if len(got) != len(runs) {
			t.Fatalf("case %d: %d runs round-tripped to %d", i, len(runs), len(got))
		}
		for j := range runs {
			if got[j].Offset != runs[j].Offset || !bytes.Equal(got[j].Data, runs[j].Data) {
				t.Fatalf("case %d run %d: %+v != %+v", i, j, got[j], runs[j])
			}
		}
	}
}

func TestDeltaPatchRejectsCorruption(t *testing.T) {
	payload := EncodeDeltaPatch(64, []DeltaRun{{Offset: 3, Data: []byte{1, 2, 3}}})
	for i := range payload {
		bad := append([]byte(nil), payload...)
		bad[i] ^= 0x40
		if _, _, err := DecodeDeltaPatch(bad); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	if _, _, err := DecodeDeltaPatch(payload[:5]); err == nil {
		t.Fatal("truncated patch accepted")
	}
	if _, _, err := DecodeDeltaPatch(nil); err == nil {
		t.Fatal("nil patch accepted")
	}
	// A run reaching outside the declared shard length must be refused
	// at decode time, before any apply.
	outside := EncodeDeltaPatch(4, []DeltaRun{{Offset: 2, Data: []byte{1, 2, 3}}})
	if _, _, err := DecodeDeltaPatch(outside); err == nil {
		t.Fatal("run outside the shard accepted")
	}
}

func TestApplyDeltaPatch(t *testing.T) {
	oldChunk := []byte("the quick brown fox jumps over the lazy dog.!ябж")
	newChunk := append([]byte(nil), oldChunk...)
	newChunk[4], newChunk[5] = 'Q', 'U'
	delta := make([]byte, len(oldChunk))
	for i := range delta {
		delta[i] = oldChunk[i] ^ newChunk[i]
	}
	baseMeta := ECMeta{ChunkIndex: 2, K: 3, M: 2, TotalLen: 120, Stripe: NewStripeID()}
	stored := EncodeChunkPayload(baseMeta, oldChunk)

	newMeta := baseMeta
	newMeta.Stripe = NewStripeID()
	newMeta.TotalLen = 130
	patch := EncodeDeltaPatch(uint32(len(oldChunk)), []DeltaRun{{Offset: 4, Data: delta[4:6]}})
	if err := ApplyDeltaPatch(stored, patch, newMeta); err != nil {
		t.Fatalf("ApplyDeltaPatch: %v", err)
	}
	// The patched payload must be byte-identical to encoding the new
	// chunk under the new stripe from scratch — header, CRC and all.
	want := EncodeChunkPayload(newMeta, newChunk)
	if !bytes.Equal(stored, want) {
		t.Fatal("patched chunk payload differs from a fresh encode of the new chunk")
	}

	// XOR is self-inverse: re-applying the same patch under the base
	// meta restores the original payload exactly — the rollback path.
	if err := ApplyDeltaPatch(stored, patch, baseMeta); err != nil {
		t.Fatalf("rollback apply: %v", err)
	}
	if !bytes.Equal(stored, EncodeChunkPayload(baseMeta, oldChunk)) {
		t.Fatal("rollback did not restore the base payload")
	}
}

func TestApplyDeltaPatchRefusals(t *testing.T) {
	chunk := bytes.Repeat([]byte{5}, 64)
	meta := ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 180, Stripe: NewStripeID()}
	patch := EncodeDeltaPatch(64, []DeltaRun{{Offset: 0, Data: []byte{1}}})

	// Corrupt stored chunk: the base CRC no longer matches, so patching
	// it would poison the stripe with garbage that carries a VALID new
	// CRC. Must refuse.
	stored := EncodeChunkPayload(meta, chunk)
	stored[30] ^= 0xFF
	if err := ApplyDeltaPatch(stored, patch, meta); err == nil {
		t.Fatal("patched a corrupt base chunk")
	}

	// Geometry mismatch: a patch addressed to another chunk index / code
	// shape never touches this chunk.
	for _, wrong := range []ECMeta{
		{ChunkIndex: 2, K: 3, M: 2, Stripe: meta.Stripe},
		{ChunkIndex: 1, K: 4, M: 2, Stripe: meta.Stripe},
		{ChunkIndex: 1, K: 3, M: 1, Stripe: meta.Stripe},
	} {
		stored := EncodeChunkPayload(meta, chunk)
		before := append([]byte(nil), stored...)
		if err := ApplyDeltaPatch(stored, patch, wrong); err == nil {
			t.Fatalf("geometry mismatch %+v accepted", wrong)
		}
		if !bytes.Equal(stored, before) {
			t.Fatalf("geometry mismatch %+v modified the chunk", wrong)
		}
	}

	// Shard-length mismatch: a patch built for a different shard size.
	stored = EncodeChunkPayload(meta, chunk)
	if err := ApplyDeltaPatch(stored, EncodeDeltaPatch(128, nil), meta); err == nil {
		t.Fatal("shard-length mismatch accepted")
	}

	// A total length the shards cannot hold: longer than K shards, or so
	// much shorter that the pad overflows its 16 bits.
	big := make([]byte, 32<<10)
	for _, c := range []struct {
		chunk []byte
		total uint32
	}{{chunk, 3*64 + 1}, {big, 3*(32<<10) - 65536}} {
		base := meta
		base.TotalLen = 3 * uint32(len(c.chunk))
		stored := EncodeChunkPayload(base, c.chunk)
		before := append([]byte(nil), stored...)
		wrong := base
		wrong.TotalLen = c.total
		err := ApplyDeltaPatch(stored, EncodeDeltaPatch(uint32(len(c.chunk)), nil), wrong)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("total length %d over %d-byte shards: %v, want ErrMalformed", c.total, len(c.chunk), err)
		}
		if !bytes.Equal(stored, before) {
			t.Fatalf("total length %d modified the chunk", c.total)
		}
	}

	// Not a chunk payload at all.
	if err := ApplyDeltaPatch([]byte("plain value"), patch, meta); err == nil {
		t.Fatal("patched a non-chunk payload")
	}
}
