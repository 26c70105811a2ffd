package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ecstore/internal/bufpool"
)

// fieldGen draws field values that favour the edges: zero (the field is
// absent), one, the maximum, and otherwise anything.
type fieldGen struct{ rng *rand.Rand }

func (g fieldGen) u64() uint64 {
	switch g.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return math.MaxUint64
	default:
		return g.rng.Uint64() >> g.rng.Intn(64)
	}
}

func (g fieldGen) u32() uint32 { return uint32(min(g.u64(), math.MaxUint32)) }

func (g fieldGen) meta() ECMeta {
	m := ECMeta{TotalLen: g.u32(), Stripe: g.u64()}
	switch g.rng.Intn(3) {
	case 0: // no geometry
	case 1: // the widest stripe there is
		m.K, m.M, m.ChunkIndex = 255, 1, 255
	default:
		m.K = uint8(1 + g.rng.Intn(200))
		m.M = uint8(g.rng.Intn(256 - int(m.K) + 1))
		m.ChunkIndex = uint8(g.rng.Intn(int(m.K) + int(m.M)))
	}
	return m
}

// requestMeta is meta for a request of op: the coordinated ops always
// carry geometry.
func (g fieldGen) requestMeta(op Op) ECMeta {
	m := g.meta()
	if (op == OpEncodeSet || op == OpDecodeGet) && m.K == 0 {
		m.K = 1
	}
	return m
}

func (g fieldGen) key() string {
	switch g.rng.Intn(3) {
	case 0:
		return ""
	case 1:
		return strings.Repeat("k", MaxKeyLen)
	default:
		return strings.Repeat("x", g.rng.Intn(40))
	}
}

func (g fieldGen) value() []byte {
	n := []int{0, 1, 127, 128, 5000}[g.rng.Intn(5)]
	if n == 0 {
		return nil
	}
	v := make([]byte, n)
	g.rng.Read(v)
	return v
}

func (g fieldGen) op(batchable bool) Op {
	for {
		op := Op(1 + g.rng.Intn(int(OpRingUpdate)))
		if !batchable || op != OpBatch {
			return op
		}
	}
}

// TestFieldBlocksRoundTrip is the codec's property: for random plain
// requests and responses and random batch sub-ops, zero and maximum
// fields included, decoding the encoding gives back the original value,
// and the encoded length is the one the size functions promise — the
// exact EncodedSize a batch planner budgets with.
func TestFieldBlocksRoundTrip(t *testing.T) {
	g := fieldGen{rand.New(rand.NewSource(31))}
	for i := 0; i < 2000; i++ {
		req := Request{
			ID: g.u64(), Op: g.op(false), Key: g.key(), Value: g.value(),
			TTLSeconds: g.u32(), Compare: g.u64(), Epoch: g.u64(),
		}
		req.Meta = g.requestMeta(req.Op)
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		var h fields
		req.header(&h)
		if want := 4 + h.size(reqFrame) + len(req.Key) + len(req.Value); len(frame) != want {
			t.Fatalf("request %+v: %d bytes, size says %d", req, len(frame), want)
		}
		got, err := ReadRequestPooled(bufio.NewReader(bytes.NewReader(frame)), nil)
		if err != nil {
			t.Fatalf("request %+v: %v", req, err)
		}
		if !reflect.DeepEqual(*got, req) {
			t.Fatalf("request round trip:\n got %+v\nwant %+v", *got, req)
		}

		resp := Response{ID: g.u64(), Status: Status(g.rng.Intn(256)), Value: g.value(), TTLSeconds: g.u32(), Meta: g.meta()}
		frame, err = AppendResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		h = fields{}
		resp.header(&h)
		if want := 4 + h.size(respFrame) + len(resp.Value); len(frame) != want {
			t.Fatalf("response %+v: %d bytes, size says %d", resp, len(frame), want)
		}
		gotResp, err := ReadResponse(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("response %+v: %v", resp, err)
		}
		if !reflect.DeepEqual(*gotResp, resp) {
			t.Fatalf("response round trip:\n got %+v\nwant %+v", *gotResp, resp)
		}

		subs := make([]BatchReq, 1+g.rng.Intn(4))
		for j := range subs {
			subs[j] = BatchReq{
				Op: g.op(true), Key: g.key(), Value: g.value(),
				TTLSeconds: g.u32(), Compare: g.u64(),
			}
			subs[j].Meta = g.requestMeta(subs[j].Op)
		}
		payload, err := AppendBatchRequests(nil, subs)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != BatchRequestsSize(subs) {
			t.Fatalf("batch requests: %d bytes, BatchRequestsSize says %d", len(payload), BatchRequestsSize(subs))
		}
		gotSubs, err := DecodeBatchRequests(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSubs, subs) {
			t.Fatalf("batch requests round trip:\n got %+v\nwant %+v", gotSubs, subs)
		}

		resps := make([]BatchResp, 1+g.rng.Intn(4))
		size := BatchOverhead
		for j := range resps {
			resps[j] = BatchResp{Status: Status(g.rng.Intn(256)), Value: g.value(), TTLSeconds: g.u32(), Meta: g.meta()}
			size += resps[j].EncodedSize()
		}
		payload, err = AppendBatchResponses(nil, resps)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != size {
			t.Fatalf("batch responses: %d bytes, EncodedSize says %d", len(payload), size)
		}
		gotResps, err := DecodeBatchResponses(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotResps, resps) {
			t.Fatalf("batch responses round trip:\n got %+v\nwant %+v", gotResps, resps)
		}
	}
}

// TestFrameHeaderBytes pins what the frames of a small erasure-coded
// Get and Set cost on the wire, with a 20-byte chunk key, an id past
// 2^14 (three uvarint bytes) and epoch 1: a regression in the field
// encoding fails here, not only in a benchmark.
func TestFrameHeaderBytes(t *testing.T) {
	const id = 1 << 20
	key := strings.Repeat("c", 20)
	meta := ECMeta{ChunkIndex: 1, K: 3, M: 2, TotalLen: 1024, Stripe: NewStripeID()}
	payload := EncodeChunkPayload(meta, make([]byte, 342))
	for _, c := range []struct {
		name  string
		frame func() ([]byte, error)
		body  int // key and value bytes
		want  int // everything else
	}{
		{"get-chunk request", func() ([]byte, error) {
			return AppendRequest(nil, &Request{ID: id, Op: OpGetChunk, Key: key, Epoch: 1})
		}, len(key), 11},
		{"ok response with the chunk", func() ([]byte, error) {
			return AppendResponse(nil, &Response{ID: id, Status: StatusOK, Value: payload, Meta: ECMeta{Stripe: meta.Stripe}})
		}, len(payload), 17},
		{"set-chunk request", func() ([]byte, error) {
			return AppendRequest(nil, &Request{ID: id, Op: OpSetChunk, Key: key, Value: payload, Epoch: 1, Meta: meta})
		}, len(key) + len(payload), 24},
		{"write ack", func() ([]byte, error) {
			return AppendResponse(nil, &Response{ID: id, Status: StatusOK, Meta: ECMeta{Stripe: meta.Stripe}})
		}, 0, 17},
	} {
		frame, err := c.frame()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(frame) - c.body; got != c.want {
			t.Errorf("%s: %d header bytes, want %d", c.name, got, c.want)
		}
	}
}

// TestFieldBlockRefusals: every non-canonical or impossible block is
// refused as ErrMalformed — in a plain frame as a *FrameError naming the
// request, so a server can answer it.
func TestFieldBlockRefusals(t *testing.T) {
	// frame assembles a request frame: op, mask, id 9, key "k", then the
	// optional fields as given, and no value.
	frame := func(op Op, mask byte, opt ...byte) []byte {
		body := append([]byte{byte(op), mask, 9, 1}, opt...)
		body = append(body, 'k')
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	stripe := binary.BigEndian.AppendUint64(nil, 5)
	cases := map[string][]byte{
		"unknown op":               frame(Op(99), 0),
		"zero k":                   frame(OpGetChunk, hasGeometry, 0, 0, 2),
		"k+m past MaxShards":       frame(OpDecodeGet, hasGeometry, 0, 2, 255),
		"index past k+m":           frame(OpSetChunk, hasGeometry, 5, 3, 2),
		"encode-set, no geometry":  frame(OpEncodeSet, 0),
		"decode-get, no geometry":  frame(OpDecodeGet, hasStripe, stripe...),
		"present zero stripe":      frame(OpGet, hasStripe, make([]byte, 8)...),
		"present zero ttl":         frame(OpSet, hasTTL, 0),
		"non-canonical ttl":        frame(OpSet, hasTTL, 0x81, 0x00),
		"ttl past 32 bits":         frame(OpSet, hasTTL, 0x80, 0x80, 0x80, 0x80, 0x10),
		"unknown mask bit":         frame(OpGet, 1<<6),
		"stripe runs into the key": frame(OpGet, hasStripe, stripe[:7]...),
		"key past the frame end":   frame(OpGet, 0)[:8],
	}
	fixLen := cases["key past the frame end"]
	binary.BigEndian.PutUint32(fixLen, uint32(len(fixLen)-4))
	for name, raw := range cases {
		_, err := ReadRequestPooled(bufio.NewReader(bytes.NewReader(raw)), nil)
		var fe *FrameError
		if !errors.Is(err, ErrMalformed) || !errors.As(err, &fe) || fe.ID != 9 {
			t.Errorf("%s: %v, want a FrameError for id 9 wrapping ErrMalformed", name, err)
		}
	}
	// The same geometry in a batch sub-op and in a response.
	sub := []byte{0, 0, 0, 1, byte(OpGetChunk), hasGeometry, 1, 0, 0, 2, 255, 'k'}
	if _, err := DecodeBatchRequests(sub); !errors.Is(err, ErrMalformed) {
		t.Errorf("batch sub-op with K+M past MaxShards: %v", err)
	}
	bare := []byte{0, 0, 0, 1, byte(OpDecodeGet), 0, 1, 0, 'k'}
	if _, err := DecodeBatchRequests(bare); !errors.Is(err, ErrMalformed) {
		t.Errorf("decode-get sub-op without geometry: %v", err)
	}
	resp := []byte{0, 0, 0, 6, byte(StatusOK), hasGeometry, 9, 0, 2, 255}
	if _, err := ReadResponse(bufio.NewReader(bytes.NewReader(resp))); !errors.Is(err, ErrMalformed) {
		t.Errorf("response with K+M past MaxShards: %v", err)
	}
	// Epoch and compare are request-frame fields.
	noEpoch := []byte{0, 0, 0, 1, byte(OpGet), hasEpoch, 1, 0, 1, 'k'}
	if _, err := DecodeBatchRequests(noEpoch); !errors.Is(err, ErrMalformed) {
		t.Errorf("batch sub-op with an epoch: %v", err)
	}
}

// TestReadPooledAnswersUnparsableFrame: a frame that does not parse is
// consumed whole, kept or leased, so the next frame on the stream reads
// as it should and no lease is left behind.
func TestReadPooledAnswersUnparsableFrame(t *testing.T) {
	p := bufpool.New()
	var stream []byte
	for _, op := range []Op{OpSetChunk, OpGetChunk} {
		bad, err := AppendRequest(nil, &Request{ID: 7, Op: op, Key: "k", Value: bytes.Repeat([]byte{1}, 9000), Meta: ECMeta{K: 2, M: 255}})
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, bad...)
	}
	stream, _ = AppendRequest(stream, &Request{ID: 8, Op: OpPing})
	br := bufio.NewReader(bytes.NewReader(stream))
	var req Request
	for i := 0; i < 2; i++ {
		var fe *FrameError
		if err := req.ReadPooled(br, p); !errors.As(err, &fe) || fe.ID != 7 {
			t.Fatalf("frame %d: %v, want a FrameError for id 7", i, err)
		}
	}
	if err := req.ReadPooled(br, p); err != nil || req.ID != 8 || req.Op != OpPing {
		t.Fatalf("the frame after: %+v, %v", req, err)
	}
	req.Release()
	mustBalance(t, p)
}
