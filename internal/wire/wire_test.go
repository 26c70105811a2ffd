package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"ecstore/internal/bufpool"
)

// WriteRequest writes one request frame to w.
func WriteRequest(w io.Writer, req *Request) error {
	buf, err := AppendRequest(nil, req)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadResponsePooled reads one response frame from r into a new
// response whose Value aliases a buffer leased from pool until Release.
func ReadResponsePooled(r *bufio.Reader, pool *bufpool.Pool) (*Response, error) {
	resp := new(Response)
	if err := resp.ReadPooled(r, pool); err != nil {
		return nil, err
	}
	return resp, nil
}

// ReadResponse reads one response frame from r into a response that
// owns its memory.
func ReadResponse(r *bufio.Reader) (*Response, error) { return ReadResponsePooled(r, nil) }

func roundTripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequestPooled(bufio.NewReader(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		ID:         42,
		Op:         OpSetChunk,
		Key:        "user:1234\x00c2",
		Value:      []byte("hello world"),
		TTLSeconds: 3600,
		Meta:       ECMeta{ChunkIndex: 2, K: 3, M: 2, TotalLen: 11},
	}
	got := roundTripRequest(t, req)
	if got.ID != req.ID || got.Op != req.Op || got.Key != req.Key || got.TTLSeconds != 3600 {
		t.Fatalf("got %+v", got)
	}
	if !bytes.Equal(got.Value, req.Value) {
		t.Fatalf("value %q", got.Value)
	}
	if got.Meta != req.Meta {
		t.Fatalf("meta %+v, want %+v", got.Meta, req.Meta)
	}
}

func TestRequestEmptyValue(t *testing.T) {
	got := roundTripRequest(t, &Request{ID: 1, Op: OpGet, Key: "k"})
	if got.Value != nil {
		t.Fatalf("empty value decoded as %v", got.Value)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		ID:     7,
		Status: StatusOK,
		Value:  bytes.Repeat([]byte{0xAB}, 1024),
		Meta:   ECMeta{ChunkIndex: 4, K: 3, M: 2, TotalLen: 3000},
	}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != resp.ID || got.Status != resp.Status || got.Meta != resp.Meta {
		t.Fatalf("got %+v", got)
	}
	if !bytes.Equal(got.Value, resp.Value) {
		t.Fatal("value differs")
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		req := &Request{ID: uint64(i), Op: OpPing, Key: "k"}
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i := 0; i < 10; i++ {
		got, err := ReadRequestPooled(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != uint64(i) {
			t.Fatalf("frame %d has id %d", i, got.ID)
		}
	}
	if _, err := ReadRequestPooled(r, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestOversizeKeyRejected(t *testing.T) {
	req := &Request{ID: 1, Op: OpSet, Key: strings.Repeat("x", MaxKeyLen+1)}
	if err := WriteRequest(io.Discard, req); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestOversizeValueRejected(t *testing.T) {
	req := &Request{ID: 1, Op: OpSet, Key: "k", Value: make([]byte, MaxValueLen+1)}
	if err := WriteRequest(io.Discard, req); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("request: got %v", err)
	}
	resp := &Response{ID: 1, Status: StatusOK, Value: make([]byte, MaxValueLen+1)}
	if err := WriteResponse(io.Discard, resp); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("response: got %v", err)
	}
}

func TestMalformedFrames(t *testing.T) {
	// Frame claiming a huge length.
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.BigEndian, uint32(MaxValueLen*4))
	if _, err := ReadRequestPooled(bufio.NewReader(&buf), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("huge frame: %v", err)
	}
	// Frame shorter than a header.
	buf.Reset()
	_ = binary.Write(&buf, binary.BigEndian, uint32(3))
	buf.Write([]byte{1, 2, 3})
	if _, err := ReadRequestPooled(bufio.NewReader(&buf), nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short frame: %v", err)
	}
	// Truncated body.
	buf.Reset()
	req := &Request{ID: 1, Op: OpSet, Key: "k", Value: []byte("v")}
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadRequestPooled(bufio.NewReader(bytes.NewReader(trunc)), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated: %v", err)
	}
	// Invalid opcode.
	buf.Reset()
	if err := WriteRequest(&buf, &Request{ID: 1, Op: Op(99), Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRequestPooled(bufio.NewReader(&buf), nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad opcode: %v", err)
	}
	// Internal length mismatch: keyLen says more than the frame has.
	raw, err := AppendRequest(nil, &Request{ID: 1, Op: OpGet, Key: "kk"})
	if err != nil {
		t.Fatal(err)
	}
	raw = raw[:len(raw)-1]                              // drop a key byte
	binary.BigEndian.PutUint32(raw, uint32(len(raw)-4)) // fix outer length
	if _, err := ReadRequestPooled(bufio.NewReader(bytes.NewReader(raw)), nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("length mismatch: %v", err)
	}
}

// TestRequestQuick round-trips random chunk writes. Their geometry is
// random too: a frame whose geometry no stripe can have (K = 0,
// K+M > erasure.MaxShards, index >= K+M) must be refused as malformed.
func TestRequestQuick(t *testing.T) {
	f := func(id uint64, key string, value []byte, ci, k, m uint8, total uint32) bool {
		if len(key) > MaxKeyLen {
			key = key[:MaxKeyLen]
		}
		if len(value) > 4096 {
			value = value[:4096]
		}
		req := &Request{
			ID: id, Op: OpSetChunk, Key: key, Value: value,
			Meta: ECMeta{ChunkIndex: ci, K: k, M: m, TotalLen: total},
		}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			return false
		}
		got, err := ReadRequestPooled(bufio.NewReader(&buf), nil)
		shards := int(k) + int(m)
		if ci|k|m != 0 && (k == 0 || shards > 256 || int(ci) >= shards) {
			return errors.Is(err, ErrMalformed)
		}
		if err != nil {
			return false
		}
		return got.ID == id && got.Key == key && bytes.Equal(got.Value, value) && got.Meta == req.Meta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResponseErr(t *testing.T) {
	cases := []struct {
		resp Response
		want error
	}{
		{Response{Status: StatusOK}, nil},
		{Response{Status: StatusNotFound}, ErrNotFound},
		{Response{Status: StatusOutOfMemory}, ErrOutOfMemory},
	}
	for _, c := range cases {
		if got := c.resp.Err(); !errors.Is(got, c.want) {
			t.Errorf("status %v: err %v, want %v", c.resp.Status, got, c.want)
		}
	}
	errResp := Response{Status: StatusError, Value: []byte("boom")}
	if got := errResp.Err(); got == nil || !strings.Contains(got.Error(), "boom") {
		t.Errorf("error response: %v", got)
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	for op := range opNames {
		if op.String() == "" || !op.Valid() {
			t.Errorf("op %d invalid", op)
		}
	}
	if Op(200).Valid() {
		t.Error("Op(200) claims valid")
	}
	if Op(200).String() != "op(200)" {
		t.Errorf("Op(200).String() = %q", Op(200).String())
	}
	if Status(200).String() != "status(200)" {
		t.Errorf("Status(200).String() = %q", Status(200).String())
	}
	if StatusOK.String() != "ok" {
		t.Errorf("StatusOK = %q", StatusOK.String())
	}
}

func TestChunkKeyDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		k := ChunkKey("base", i)
		if seen[k] {
			t.Fatalf("duplicate chunk key %q", k)
		}
		seen[k] = true
		if !strings.HasPrefix(k, "base") {
			t.Fatalf("chunk key %q lost base", k)
		}
	}
	if ChunkKey("a", 1) == ChunkKey("a\x00c", 1) {
		t.Log("note: chunk keys use NUL separator; collision requires NUL in user key")
	}
}
