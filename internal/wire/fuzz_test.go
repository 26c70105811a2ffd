package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"ecstore/internal/bufpool"
)

// pooledRange reports whether a frame of n bytes stays within the
// pool's size classes; larger leases fall back to plain allocation and
// are deliberately never retained by Put, so the get/put balance
// assertion only holds below the largest class.
func pooledRange(n int) bool { return n <= 4<<20 }

// FuzzReadRequest drives the request frame parser with arbitrary
// bytes: it must never panic, and any frame that decodes must re-encode
// to exactly the bytes it was read from (the field encoding is
// canonical) and decode again to the same request. The reader the
// server uses (Request.ReadPooled) runs on the same raw bytes and must
// agree frame for frame with readWhole, which reads the whole frame and
// parses it once: a kept-value frame is parsed in the reader's buffer
// by readKept, and readWhole is what checks that path.
func FuzzReadRequest(f *testing.F) {
	seed, err := AppendRequest(nil, &Request{
		ID: 1, Op: OpSetChunk, Key: "key", Value: []byte("value"),
		TTLSeconds: 60, Compare: 7, Meta: ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 5},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// A leased frame: its key and value alias the pooled body.
	leased, err := AppendRequest(nil, &Request{
		ID: 2, Op: OpEncodeSet, Key: "key", Value: []byte("value"), Meta: ECMeta{K: 3, M: 2, TotalLen: 5},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(leased)
	// Every field present, at its widest.
	widest, err := AppendRequest(nil, &Request{
		ID: math.MaxUint64, Op: OpCompareSet, Key: "key", Value: []byte("v"), TTLSeconds: math.MaxUint32,
		Compare: math.MaxUint64, Epoch: math.MaxUint64,
		Meta: ECMeta{ChunkIndex: 255, K: 255, M: 1, TotalLen: math.MaxUint32, Stripe: math.MaxUint64},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(widest)
	// The decode-get whose K+M no stripe can have: refused by the parser.
	crash, err := AppendRequest(nil, &Request{ID: 3, Op: OpDecodeGet, Key: "key", Meta: ECMeta{K: 2, M: 255}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(crash)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4})
	// A kept value cut short; a key longer than MaxKeyLen; a frameLen
	// that ends inside the key.
	f.Add(seed[:len(seed)-2])
	long := binary.BigEndian.AppendUint32(nil, 6)
	long = append(long, byte(OpSet), 0, 1)
	long = binary.AppendUvarint(long, MaxKeyLen+1)
	f.Add(long)
	short := bytes.Clone(seed)
	binary.BigEndian.PutUint32(short, uint32(len(seed)-4-len("value")-2))
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readWhole(bufio.NewReader(bytes.NewReader(data)))
		checkReadPooled(t, data, req, err)
		if err != nil {
			return
		}
		// Round-trip invariant for accepted frames.
		out, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("re-encode of accepted request failed: %v", err)
		}
		if !bytes.Equal(out, data[:len(out)]) {
			t.Fatalf("re-encoding differs from the frame read:\n got %x\nread %x", out, data[:len(out)])
		}
		again, err := ReadRequestPooled(bufio.NewReader(bytes.NewReader(out)), nil)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Op != req.Op || again.Key != req.Key || again.TTLSeconds != req.TTLSeconds ||
			again.Compare != req.Compare || again.Meta != req.Meta || !bytes.Equal(again.Value, req.Value) {
			t.Fatalf("round trip mismatch: %+v vs %+v", req, again)
		}

		// The pooled/vectored path must produce byte-identical frames
		// and return every lease it takes.
		pool := bufpool.New()
		frame, err := EncodeRequestFrame(pool, req)
		if err != nil {
			t.Fatalf("pooled encode of accepted request failed: %v", err)
		}
		var vbuf bytes.Buffer
		if _, err := frame.WriteTo(&vbuf); err != nil {
			t.Fatalf("frame write failed: %v", err)
		}
		frame.Release()
		if !bytes.Equal(vbuf.Bytes(), out) {
			t.Fatalf("vectored frame differs from AppendRequest output")
		}
		pooled, err := ReadRequestPooled(bufio.NewReader(&vbuf), pool)
		if err != nil {
			t.Fatalf("pooled re-decode failed: %v", err)
		}
		if pooled.Op != req.Op || pooled.Key != req.Key || pooled.Meta != req.Meta ||
			pooled.Compare != req.Compare || !bytes.Equal(pooled.Value, req.Value) {
			t.Fatalf("pooled round trip mismatch")
		}
		pooled.Release()
		if st := pool.Stats(); pooledRange(len(out)) && st.Gets != st.Puts {
			t.Fatalf("pool lease imbalance: %d gets vs %d puts", st.Gets, st.Puts)
		}
	})
}

// readWhole is the reference request reader: the whole frame read into
// memory of its own, then one parse over the body — no peeking into the
// reader's buffer and no kept-value path.
func readWhole(br *bufio.Reader) (*Request, error) {
	body, err := readFramePooled(br, minReqHeaderLen, nil)
	if err != nil {
		return nil, err
	}
	req := new(Request)
	if err := req.parse(body); err != nil {
		return nil, err
	}
	return req, nil
}

// checkReadPooled runs Request.ReadPooled over the raw bytes data and
// holds it to readWhole's verdict on them (want, wantErr): the same
// frames accepted with the same fields; every lease back in the pool
// after Release, errors included; a kept value in memory of its own,
// which scribbling over every buffer the pool hands out cannot change;
// and a frameLen below the shortest field block refused with nothing past
// the length prefix read.
func checkReadPooled(t *testing.T, data []byte, want *Request, wantErr error) {
	t.Helper()
	pool := bufpool.New()
	br := bufio.NewReader(bytes.NewReader(data))
	var got Request
	err := got.ReadPooled(br, pool)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("pooled read error %v, whole-frame read error %v", err, wantErr)
	}
	frameLen := 0
	if len(data) >= 4 {
		frameLen = int(binary.BigEndian.Uint32(data))
		if frameLen < minReqHeaderLen {
			if rest, _ := io.ReadAll(br); !bytes.Equal(rest, data[4:]) {
				t.Fatalf("frameLen %d: read %d bytes past the length prefix", frameLen, len(data)-4-len(rest))
			}
		}
	}
	if err == nil && (got.ID != want.ID || got.Op != want.Op || got.Key != want.Key ||
		got.TTLSeconds != want.TTLSeconds || got.Compare != want.Compare || got.Epoch != want.Epoch ||
		got.Meta != want.Meta || !bytes.Equal(got.Value, want.Value)) {
		t.Fatalf("pooled read %+v, whole-frame read %+v", got, *want)
	}
	kept := err == nil && keepsValue(got.Op) && len(got.Value) > 0
	value := bytes.Clone(got.Value)
	got.Release()
	if st := pool.Stats(); pooledRange(frameLen) && st.Gets != st.Puts {
		t.Fatalf("pool lease imbalance after ReadPooled (err %v): %d gets vs %d puts", err, st.Gets, st.Puts)
	}
	// A leased frame lends its key: Release clears it with the value
	// (`r.lease, r.Key, r.Value = nil, "", nil`), so nothing reads a key
	// whose bytes went back to the pool. A kept frame owns its key.
	if err == nil && !keepsValue(got.Op) && got.Key != "" {
		t.Fatalf("Release left the leased key %q", got.Key)
	}
	if !kept {
		return
	}
	// Every class up to the one that would hold the whole frame.
	for n := 512; n == 512 || n < 2*frameLen; n <<= 1 {
		for {
			hits := pool.Stats().Hits
			b := pool.GetRaw(n)
			if pool.Stats().Hits == hits {
				break // the class is drained
			}
			b = b[:cap(b)]
			for i := range b {
				b[i] = ^b[i]
			}
		}
	}
	if !bytes.Equal(got.Value, value) {
		t.Fatal("a kept value aliases frame-pool memory")
	}
}

// FuzzReadResponse is the response-side twin.
func FuzzReadResponse(f *testing.F) {
	seed, err := AppendResponse(nil, &Response{
		ID: 2, Status: StatusOK, Value: []byte("v"), TTLSeconds: 30,
		Meta: ECMeta{ChunkIndex: 0, K: 3, M: 2, TotalLen: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	widest, err := AppendResponse(nil, &Response{
		ID: math.MaxUint64, Status: StatusExists, TTLSeconds: math.MaxUint32,
		Meta: ECMeta{ChunkIndex: 255, K: 255, M: 1, TotalLen: math.MaxUint32, Stripe: math.MaxUint64},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(widest)
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		out, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(out, data[:len(out)]) {
			t.Fatalf("re-encoding differs from the frame read:\n got %x\nread %x", out, data[:len(out)])
		}
		again, err := ReadResponse(bufio.NewReader(bytes.NewReader(out)))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Status != resp.Status || again.Meta != resp.Meta ||
			again.TTLSeconds != resp.TTLSeconds || !bytes.Equal(again.Value, resp.Value) {
			t.Fatalf("round trip mismatch")
		}

		pool := bufpool.New()
		frame, err := EncodeResponseFrame(pool, resp)
		if err != nil {
			t.Fatalf("pooled encode failed: %v", err)
		}
		var vbuf bytes.Buffer
		if _, err := frame.WriteTo(&vbuf); err != nil {
			t.Fatalf("frame write failed: %v", err)
		}
		frame.Release()
		if !bytes.Equal(vbuf.Bytes(), out) {
			t.Fatalf("vectored frame differs from AppendResponse output")
		}
		pooled, err := ReadResponsePooled(bufio.NewReader(&vbuf), pool)
		if err != nil {
			t.Fatalf("pooled re-decode failed: %v", err)
		}
		if pooled.Status != resp.Status || pooled.Meta != resp.Meta ||
			pooled.TTLSeconds != resp.TTLSeconds || !bytes.Equal(pooled.Value, resp.Value) {
			t.Fatalf("pooled round trip mismatch")
		}
		pooled.Release()
		if st := pool.Stats(); pooledRange(len(out)) && st.Gets != st.Puts {
			t.Fatalf("pool lease imbalance: %d gets vs %d puts", st.Gets, st.Puts)
		}
	})
}
