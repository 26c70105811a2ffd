package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestChunkPayloadRoundTrip(t *testing.T) {
	meta := ECMeta{ChunkIndex: 3, K: 3, M: 2, TotalLen: 30}
	chunk := []byte("chunk-bytes")
	payload := EncodeChunkPayload(meta, chunk)
	gotMeta, gotChunk, err := DecodeChunkPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta %+v", gotMeta)
	}
	if !bytes.Equal(gotChunk, chunk) {
		t.Fatalf("chunk %q", gotChunk)
	}
}

func TestChunkPayloadEmptyChunk(t *testing.T) {
	payload := EncodeChunkPayload(ECMeta{ChunkIndex: 0, K: 1, M: 0, TotalLen: 0}, nil)
	meta, chunk, err := DecodeChunkPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) != 0 || meta.K != 1 {
		t.Fatalf("meta %+v chunk %v", meta, chunk)
	}
}

func TestChunkPayloadRejectsGarbage(t *testing.T) {
	// A record whose pad is more than its K shards hold: the CRC covers
	// only the shard, so it is the pad check that refuses it.
	overPadded := EncodeChunkPayload(ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 3}, []byte("x"))
	binary.BigEndian.PutUint16(overPadded[4:6], 4)
	cases := [][]byte{
		nil,
		{1, 2, 3},
		[]byte("not a chunk payload at all"),
		EncodeChunkPayload(ECMeta{ChunkIndex: 9, K: 3, M: 2, TotalLen: 3}, []byte("x")), // idx >= k+m
		EncodeChunkPayload(ECMeta{ChunkIndex: 0, K: 0, M: 2, TotalLen: 0}, []byte("x")), // k == 0
		overPadded,
	}
	for i, payload := range cases {
		if _, _, err := DecodeChunkPayload(payload); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
}

func TestChunkPayloadDetectsBitRot(t *testing.T) {
	payload := EncodeChunkPayload(ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 40}, []byte("chunk-data-here"))
	// Flip one bit in the chunk body.
	payload[len(payload)-3] ^= 0x01
	if _, _, err := DecodeChunkPayload(payload); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("got %v, want ErrChunkCorrupt", err)
	}
}

func TestChunkPayloadQuick(t *testing.T) {
	f := func(chunk []byte, idx, k, m uint8, pad uint16) bool {
		if k == 0 {
			k = 1
		}
		if int(k)+int(m) > 255 {
			m = 0
		}
		idx = idx % (k + m) // keep metadata consistent
		whole := int(k) * len(chunk)
		total := whole - int(pad)%(min(whole, 65535)+1) // a value the shards can hold
		meta := ECMeta{ChunkIndex: idx, K: k, M: m, TotalLen: uint32(total)}
		gotMeta, gotChunk, err := DecodeChunkPayload(EncodeChunkPayload(meta, chunk))
		return err == nil && gotMeta == meta && bytes.Equal(gotChunk, chunk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestChunkRecordBytes pins the stored chunk record: a 10-byte header
// (magic, index, K, M, a 2-byte pad, the shard's CRC32) and the shard.
// The stripe is not in it; it is the item's version.
func TestChunkRecordBytes(t *testing.T) {
	shard := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	// A 20-byte value over K=3 shards of 8 bytes leaves a pad of 4.
	rec := EncodeChunkPayload(ECMeta{ChunkIndex: 4, K: 3, M: 2, TotalLen: 20, Stripe: 99}, shard)
	want := []byte{0xEC, 4, 3, 2, 0, 4}
	want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(shard))
	want = append(want, shard...)
	if !bytes.Equal(rec, want) {
		t.Fatalf("record %x, want %x", rec, want)
	}
	if n := len(rec) - len(shard); n != 10 || ChunkPayloadOverhead != 10 {
		t.Fatalf("the record adds %d bytes to its shard, ChunkPayloadOverhead says %d; want 10", n, ChunkPayloadOverhead)
	}
}

// FuzzChunkRecord drives the record decoder with arbitrary bytes:
// nothing panics, and an accepted record re-encodes byte for byte from
// what it decodes to.
func FuzzChunkRecord(f *testing.F) {
	f.Add(EncodeChunkPayload(ECMeta{ChunkIndex: 4, K: 3, M: 2, TotalLen: 20}, []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	// An empty value: one aligned shard of 8 bytes each, all pad.
	f.Add(EncodeChunkPayload(ECMeta{ChunkIndex: 0, K: 3, M: 2}, make([]byte, 8)))
	// The widest stripe there is.
	f.Add(EncodeChunkPayload(ECMeta{ChunkIndex: 255, K: 255, M: 1, TotalLen: 255*8 - 7}, make([]byte, 8)))
	f.Fuzz(func(t *testing.T, stored []byte) {
		if meta, shard, err := DecodeChunkPayload(stored); err == nil {
			if again := EncodeChunkPayload(meta, shard); !bytes.Equal(again, stored) {
				t.Fatalf("record %x decodes to %+v, which encodes to %x", stored, meta, again)
			}
		}
	})
}

// TestStripeIDsDoNotWrap pins that stripe IDs keep increasing across
// the instants where a nanosecond clock shifted left by 10 bits wraps
// (every 2^54 ns, about 208.5 days): the last such instant before this
// test was written and the next one, 2027-01-31 23:57:30 UTC. An ID
// minted just after either must rank above one minted just before, or
// Best's tie-break and the convergence's newer-stripe rules order every
// new write below every old one.
func TestStripeIDsDoNotWrap(t *testing.T) {
	for _, n := range []int64{99, 100} {
		wrap := time.Unix(0, n<<54)
		before, after := StripeIDAt(wrap.Add(-time.Microsecond)), StripeIDAt(wrap.Add(time.Microsecond))
		if after <= before {
			t.Errorf("around %v: ID %d minted 1µs after is not above %d minted 1µs before", wrap.UTC(), after, before)
		}
	}
}

// TestStripeIDsResolveNanoseconds pins that the clock part of a stripe
// ID keeps nanoseconds: two processes minting in one microsecond, at
// different nanoseconds, mint different IDs, ordered as their clocks.
func TestStripeIDsResolveNanoseconds(t *testing.T) {
	at := time.Date(2027, time.January, 31, 23, 57, 30, 0, time.UTC)
	for ns := time.Duration(1); ns < time.Microsecond; ns++ {
		if prev, id := StripeIDAt(at.Add(ns-1)), StripeIDAt(at.Add(ns)); id <= prev {
			t.Fatalf("ID %d minted at +%v is not above %d minted 1ns before", id, ns, prev)
		}
	}
}

// TestNewStripeIDIsUnique: the IDs one process mints strictly increase,
// concurrent minters included, however many fall in one clock tick.
func TestNewStripeIDIsUnique(t *testing.T) {
	const minters, each = 4, 2000
	ids := make([][]uint64, minters)
	var wg sync.WaitGroup
	for m := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				ids[m] = append(ids[m], NewStripeID())
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool, minters*each)
	for _, mine := range ids {
		for j, id := range mine {
			if j > 0 && id <= mine[j-1] {
				t.Fatalf("ID %d minted after %d", id, mine[j-1])
			}
			if seen[id] {
				t.Fatalf("ID %d minted twice", id)
			}
			seen[id] = true
		}
	}
}
