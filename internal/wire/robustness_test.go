package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestReadRequestNeverPanicsOnGarbage feeds random byte streams to the
// frame readers: they must return errors, never panic, and never
// allocate absurd buffers.
func TestReadRequestNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		r := bufio.NewReader(bytes.NewReader(buf))
		_, _ = ReadRequestPooled(r, nil)
		r = bufio.NewReader(bytes.NewReader(buf))
		_, _ = ReadResponse(r)
	}
}

// TestReadRequestMutatedFrames flips bytes in valid frames: decoding
// must fail cleanly or produce a structurally valid request.
func TestReadRequestMutatedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base, err := AppendRequest(nil, &Request{
		ID: 7, Op: OpSetChunk, Key: "user:1", Value: []byte("some value bytes"),
		Meta: ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), base...)
		flips := 1 + rng.Intn(4)
		for f := 0; f < flips; f++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		req, err := ReadRequestPooled(bufio.NewReader(bytes.NewReader(mut)), nil)
		if err != nil {
			continue
		}
		// If it decoded, the invariants must hold.
		if !req.Op.Valid() {
			t.Fatalf("trial %d: invalid op decoded: %v", trial, req.Op)
		}
		if len(req.Key) > MaxKeyLen || len(req.Value) > MaxValueLen {
			t.Fatalf("trial %d: limits violated", trial)
		}
	}
}

// TestHugeLengthPrefixDoesNotAllocate ensures a hostile length prefix
// is rejected before any body allocation.
func TestHugeLengthPrefixDoesNotAllocate(t *testing.T) {
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.BigEndian, uint32(0xFFFFFFFF))
	buf.Write(make([]byte, 16))
	allocs := testing.AllocsPerRun(10, func() {
		r := bufio.NewReader(bytes.NewReader(buf.Bytes()))
		_, _ = ReadRequestPooled(r, nil)
	})
	// A bufio.Reader and small header scratch are fine; a 4 GB body
	// buffer is not. Allocations must stay trivial.
	if allocs > 10 {
		t.Fatalf("%v allocations on hostile frame", allocs)
	}
}
