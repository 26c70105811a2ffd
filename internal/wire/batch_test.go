package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func sampleBatchReqs() []BatchReq {
	return []BatchReq{
		{Op: OpGet, Key: "plain"},
		{Op: OpSet, Key: "write", Value: []byte("payload"), TTLSeconds: 30},
		{
			Op: OpSetChunk, Key: ChunkKey("striped", 3),
			Value: bytes.Repeat([]byte{0xAB}, 1000),
			Meta:  ECMeta{ChunkIndex: 3, K: 3, M: 2, TotalLen: 2900, Stripe: 0xDEADBEEF},
		},
		{Op: OpCompareSet, Key: "cas", Value: []byte("v2"), Compare: 42, Meta: ECMeta{Stripe: 43}},
		{Op: OpDelete, Key: "gone", Meta: ECMeta{Stripe: 7}},
	}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	in := sampleBatchReqs()
	buf, err := AppendBatchRequests(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != BatchRequestsSize(in) {
		t.Fatalf("encoded %d bytes, BatchRequestsSize says %d", len(buf), BatchRequestsSize(in))
	}
	out, err := DecodeBatchRequests(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d subs, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Op != in[i].Op || out[i].Key != in[i].Key ||
			!bytes.Equal(out[i].Value, in[i].Value) ||
			out[i].TTLSeconds != in[i].TTLSeconds ||
			out[i].Compare != in[i].Compare || out[i].Meta != in[i].Meta {
			t.Fatalf("sub %d differs: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	in := []BatchResp{
		{Status: StatusOK, Value: []byte("hello"), TTLSeconds: 9, Meta: ECMeta{Stripe: 11}},
		{Status: StatusNotFound},
		{Status: StatusError, Value: []byte("boom")},
		{Status: StatusExists, Meta: ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 64, Stripe: 5}},
	}
	buf, err := AppendBatchResponses(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatchResponses(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d subs, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Status != in[i].Status || !bytes.Equal(out[i].Value, in[i].Value) ||
			out[i].TTLSeconds != in[i].TTLSeconds || out[i].Meta != in[i].Meta {
			t.Fatalf("sub %d differs: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestBatchEmptyRoundTrip(t *testing.T) {
	buf, err := AppendBatchRequests(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := DecodeBatchRequests(buf)
	if err != nil || len(subs) != 0 {
		t.Fatalf("got %v, %v", subs, err)
	}
}

func TestBatchRejectsNestedBatch(t *testing.T) {
	if _, err := AppendBatchRequests(nil, []BatchReq{{Op: OpBatch, Key: "k"}}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("encode nested batch: %v", err)
	}
	// Hand-craft the same thing so the decoder is exercised too.
	// One sub-op: op, an empty mask, keyLen 1, valueLen 0, the key.
	buf := binary.BigEndian.AppendUint32(nil, 1)
	buf = append(buf, byte(OpBatch), 0, 1, 0, 'k')
	if _, err := DecodeBatchRequests(buf); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decode nested batch: %v", err)
	}
}

func TestBatchEncodeLimits(t *testing.T) {
	if _, err := AppendBatchRequests(nil, make([]BatchReq, MaxBatchOps+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-count: %v", err)
	}
	longKey := strings.Repeat("k", MaxKeyLen+1)
	if _, err := AppendBatchRequests(nil, []BatchReq{{Op: OpGet, Key: longKey}}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-long key: %v", err)
	}
	// Aggregate payload over MaxValueLen must be rejected even when
	// every sub is individually legal.
	big := make([]byte, MaxValueLen/2)
	subs := []BatchReq{
		{Op: OpSet, Key: "a", Value: big},
		{Op: OpSet, Key: "b", Value: big},
		{Op: OpSet, Key: "c", Value: big},
	}
	if _, err := AppendBatchRequests(nil, subs); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("aggregate overflow: %v", err)
	}
}

func TestBatchDecodeMalformed(t *testing.T) {
	good, err := AppendBatchRequests(nil, sampleBatchReqs())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short payload":  good[:2],
		"truncated sub":  good[:len(good)-3],
		"trailing bytes": append(append([]byte(nil), good...), 0xFF),
		"huge count":     binary.BigEndian.AppendUint32(nil, MaxBatchOps+1),
		"count past end": binary.BigEndian.AppendUint32(nil, 9),
	}
	for name, b := range cases {
		if _, err := DecodeBatchRequests(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
	goodResp, err := AppendBatchResponses(nil, []BatchResp{{Status: StatusOK, Value: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	respCases := map[string][]byte{
		"short payload":  goodResp[:3],
		"truncated sub":  goodResp[:len(goodResp)-1],
		"trailing bytes": append(append([]byte(nil), goodResp...), 0x00),
	}
	for name, b := range respCases {
		if _, err := DecodeBatchResponses(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("resp %s: got %v, want ErrMalformed", name, err)
		}
	}
}

func TestBatchRespErr(t *testing.T) {
	cases := []struct {
		resp BatchResp
		want error
	}{
		{BatchResp{Status: StatusOK}, nil},
		{BatchResp{Status: StatusNotFound}, ErrNotFound},
		{BatchResp{Status: StatusOutOfMemory}, ErrOutOfMemory},
		{BatchResp{Status: StatusExists}, ErrExists},
	}
	for _, c := range cases {
		if err := c.resp.Err(); !errors.Is(err, c.want) {
			t.Errorf("status %v: got %v, want %v", c.resp.Status, err, c.want)
		}
	}
	if err := (&BatchResp{Status: StatusError, Value: []byte("kaput")}).Err(); err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Errorf("StatusError: got %v", err)
	}
}

// FuzzBatchCodec round-trips the batch payload decoders: any input the
// request or response decoder accepts must re-encode to exactly the
// bytes it was read from, and no input may panic or over-allocate.
func FuzzBatchCodec(f *testing.F) {
	seed, _ := AppendBatchRequests(nil, sampleBatchReqs())
	f.Add(seed, true)
	respSeed, _ := AppendBatchResponses(nil, []BatchResp{
		{Status: StatusOK, Value: []byte("v")},
		{Status: StatusError, Value: []byte("oops")},
	})
	f.Add(respSeed, false)
	f.Add([]byte{}, true)
	f.Add(binary.BigEndian.AppendUint32(nil, 0), false)
	// A decode-get sub-op whose K+M no stripe can have.
	crash, _ := AppendBatchRequests(nil, []BatchReq{{Op: OpDecodeGet, Key: "k", Meta: ECMeta{K: 2, M: 255}}})
	f.Add(crash, true)
	f.Fuzz(func(t *testing.T, data []byte, asRequest bool) {
		if len(data) > MaxValueLen {
			// A payload this size could never arrive in one frame, and
			// re-encoding it would trip the aggregate limit by design.
			return
		}
		if asRequest {
			subs, err := DecodeBatchRequests(data)
			if err != nil {
				return
			}
			re, err := AppendBatchRequests(nil, subs)
			if err != nil {
				t.Fatalf("decoded batch did not re-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("re-encoding differs from the payload read:\n got %x\nread %x", re, data)
			}
			again, err := DecodeBatchRequests(re)
			if err != nil || len(again) != len(subs) {
				t.Fatalf("re-decode: %v (%d vs %d subs)", err, len(again), len(subs))
			}
			return
		}
		subs, err := DecodeBatchResponses(data)
		if err != nil {
			return
		}
		re, err := AppendBatchResponses(nil, subs)
		if err != nil {
			t.Fatalf("decoded batch did not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs from the payload read:\n got %x\nread %x", re, data)
		}
		if _, err := DecodeBatchResponses(re); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
	})
}
