package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"ecstore/internal/bufpool"
)

// WriteTo writes the frame to w, its vectors in order: the bytes a
// FrameQueue puts on the wire for it.
func (f *Frame) WriteTo(w io.Writer) (int64, error) {
	hdr, val := f.Vectors()
	n, err := w.Write(hdr)
	if err != nil || len(val) == 0 {
		return int64(n), err
	}
	m, err := w.Write(val)
	return int64(n + m), err
}

// mustBalance fails the test unless every buffer leased from p has
// been returned — the core lease-lifecycle invariant of the pooled
// wire path.
func mustBalance(t *testing.T, p *bufpool.Pool) {
	t.Helper()
	st := p.Stats()
	if st.Gets != st.Puts {
		t.Fatalf("pool lease imbalance: %d gets vs %d puts", st.Gets, st.Puts)
	}
}

func TestEncodeRequestFrameInlineMatchesAppend(t *testing.T) {
	p := bufpool.New()
	req := &Request{
		ID: 7, Op: OpSet, Key: "k", Value: []byte("small value"),
		TTLSeconds: 3, Meta: ECMeta{K: 3, M: 2, TotalLen: 11},
	}
	want, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	f, err := EncodeRequestFrame(p, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, val := f.Vectors(); val != nil {
		t.Fatalf("value below threshold must be inlined, got %d-byte vector", len(val))
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("framed bytes differ from AppendRequest")
	}
	f.Release()
	f.Release() // idempotent
	mustBalance(t, p)
}

func TestEncodeRequestFrameVectoredTransfersLease(t *testing.T) {
	p := bufpool.New()
	value := p.GetRaw(FrameInlineThreshold + 1)
	for i := range value {
		value[i] = byte(i)
	}
	req := &Request{ID: 9, Op: OpSetChunk, Key: "big", Value: value, ValuePool: p}
	want, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	f, err := EncodeRequestFrame(p, req)
	if err != nil {
		t.Fatal(err)
	}
	if req.ValuePool != nil {
		t.Fatal("frame must take ownership of the value lease")
	}
	if _, val := f.Vectors(); len(val) != FrameInlineThreshold+1 {
		t.Fatalf("large value must ride as its own vector, got %d bytes", len(val))
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("framed bytes differ from AppendRequest")
	}
	f.Release()
	mustBalance(t, p)
}

func TestEncodeRequestFrameInlineReleasesValueLease(t *testing.T) {
	p := bufpool.New()
	value := p.GetRaw(100)
	req := &Request{ID: 1, Op: OpSet, Key: "k", Value: value, ValuePool: p}
	f, err := EncodeRequestFrame(p, req)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	mustBalance(t, p) // the inlined value's lease went straight back
}

func TestEncodeRequestFrameErrorReleasesValueLease(t *testing.T) {
	p := bufpool.New()
	value := p.GetRaw(64)
	req := &Request{ID: 1, Op: OpSet, Key: string(make([]byte, MaxKeyLen+1)), Value: value, ValuePool: p}
	if _, err := EncodeRequestFrame(p, req); err == nil {
		t.Fatal("expected oversized-key error")
	}
	mustBalance(t, p)
}

func TestEncodeResponseFrameRoundTrip(t *testing.T) {
	p := bufpool.New()
	for _, n := range []int{0, 10, FrameInlineThreshold, FrameInlineThreshold + 1, 1 << 20} {
		resp := &Response{ID: 3, Status: StatusOK, Value: bytes.Repeat([]byte{0xAB}, n),
			Meta: ECMeta{K: 3, M: 2, TotalLen: uint32(n)}}
		want, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		f, err := EncodeResponseFrame(p, resp)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("value len %d: framed bytes differ from AppendResponse", n)
		}
		f.Release()
		got, err := ReadResponsePooled(bufio.NewReader(&buf), p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != resp.Status || got.Meta != resp.Meta || !bytes.Equal(got.Value, resp.Value) {
			t.Fatalf("value len %d: round trip mismatch", n)
		}
		got.Release()
		got.Release() // idempotent
	}
	mustBalance(t, p)
}

func TestReadRequestPooledRoundTrip(t *testing.T) {
	p := bufpool.New()
	req := &Request{
		ID: 11, Op: OpSetChunk, Key: "chunk/0", Value: bytes.Repeat([]byte{7}, 100_000),
		TTLSeconds: 9, Meta: ECMeta{ChunkIndex: 2, K: 3, M: 2, TotalLen: 100_000, Stripe: 42},
	}
	buf, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequestPooled(bufio.NewReader(bytes.NewReader(buf)), p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != req.Op || got.Key != req.Key || got.Meta != req.Meta || !bytes.Equal(got.Value, req.Value) {
		t.Fatal("round trip mismatch")
	}
	got.Release()
	mustBalance(t, p)
}

func TestEncodeChunkPayloadPooledMatchesUnpooled(t *testing.T) {
	p := bufpool.New()
	meta := ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 99, Stripe: 1234}
	chunk := bytes.Repeat([]byte{0xCD}, 999)
	want := EncodeChunkPayload(meta, chunk)
	got := EncodeChunkPayloadPooled(p, meta, chunk)
	if !bytes.Equal(want, got) {
		t.Fatal("pooled chunk payload differs")
	}
	p.Put(got)
	mustBalance(t, p)
}
