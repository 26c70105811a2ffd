// Package wire defines the binary request/response protocol spoken
// between the key-value store client and servers (and between servers
// for the server-side encode/decode schemes). It is a compact
// length-prefixed framing whose header is op-shaped (fields.go): a frame
// carries only the fields its op uses, the erasure-coding metadata a
// chunk needs to be independently locatable and decodable among them.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
	"unsafe"

	"ecstore/internal/bufpool"
)

// Op identifies a request type.
type Op uint8

// Request opcodes.
const (
	// OpSet stores a whole value under a key.
	OpSet Op = iota + 1
	// OpGet fetches a whole value.
	OpGet
	// OpDelete removes a key; a non-zero Compare makes the removal
	// conditional on the stored version (see Request.Compare).
	OpDelete
	// OpSetChunk stores one erasure-coded chunk (or one replica copy)
	// under a derived chunk key.
	OpSetChunk
	// OpGetChunk fetches one chunk.
	OpGetChunk
	// OpEncodeSet asks the receiving server to split, encode and
	// distribute the value itself (the server-side-encode schemes).
	OpEncodeSet
	// OpDecodeGet asks the receiving server to aggregate chunks from
	// its peers, decode if needed, and return the whole value (the
	// server-side-decode schemes).
	OpDecodeGet
	// OpStats returns server statistics.
	OpStats
	// OpPing is a liveness check.
	OpPing
	// OpScan returns one page of the server's keyspace: the request
	// carries only its value, an opaque cursor (empty to start), and the
	// response value is a ScanPage with the next DefaultScanLimit keys
	// and the next cursor. The anti-entropy scrubber is built on this.
	OpScan
	// OpCompareSet is a conditional store: the write lands only when
	// the stored item's version matches Compare (CompareAbsent demands
	// the key not exist). Meta.Stripe carries the version the new item
	// is stored under. With Meta.K > 0 the request targets one erasure
	// chunk, whose absence is tolerated (a lost chunk must not block a
	// CAS of a still-decodable stripe); the response's Meta.Stripe
	// reports the prior version (0 when the chunk was absent).
	OpCompareSet
	// OpFlush empties the receiving server's store (memcached
	// flush_all fan-out).
	OpFlush
	// OpBatch carries a vector of sub-requests in one frame and
	// returns a vector of sub-responses in one frame — the bulk
	// (MGet/MSet/MDelete) wire path. Sub-encodings are defined in
	// batch.go; nested batches are rejected.
	OpBatch
	// OpRingGet returns the server's current membership view (epoch +
	// server set) as an encoded membership payload in the response
	// value. Always served regardless of request epoch — it is how a
	// stale party learns the new ring.
	OpRingGet
	// OpRingUpdate offers the server a membership view in the request
	// value. The server adopts it iff it is strictly newer than its
	// current view, and always answers with its (possibly just
	// updated) current view — adopt-if-newer makes pushes idempotent
	// and safe to fan out. Always served regardless of request epoch.
	OpRingUpdate
)

// CompareAbsent, as OpCompareSet's Compare value, demands that the key
// does not exist (memcached add). Stripe IDs minted by NewStripeID are
// never zero, so the sentinel cannot collide with a real version.
const CompareAbsent uint64 = 0

var opNames = map[Op]string{
	OpSet:        "set",
	OpGet:        "get",
	OpDelete:     "delete",
	OpSetChunk:   "set-chunk",
	OpGetChunk:   "get-chunk",
	OpEncodeSet:  "encode-set",
	OpDecodeGet:  "decode-get",
	OpStats:      "stats",
	OpPing:       "ping",
	OpScan:       "scan",
	OpCompareSet: "compare-set",
	OpFlush:      "flush",
	OpBatch:      "batch",
	OpRingGet:    "ring-get",
	OpRingUpdate: "ring-update",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a known opcode.
func (o Op) Valid() bool { return o >= OpSet && o <= OpRingUpdate }

// Batchable reports whether o may ride inside an OpBatch frame: the
// admission list servers enforce and clients batch by — every data op.
// A batch holds store-local ops, or coordinated ops (OpEncodeSet /
// OpDecodeGet) of one kind, which the server runs as one coordinator
// call: one fan-out to the peers for the whole batch (BatchLead). Admin
// ops (stats/scan/flush) have no bulk caller and carry frame-sized
// payloads of their own.
func (o Op) Batchable() bool {
	switch o {
	case OpSet, OpSetChunk, OpGet, OpGetChunk, OpDelete, OpCompareSet, OpPing,
		OpEncodeSet, OpDecodeGet:
		return true
	default:
		return false
	}
}

// TTLSeconds converts an item lifetime to the whole seconds a frame
// carries. It rounds UP, so a sub-second TTL becomes 1 s rather than 0
// (0 on the wire means "no expiry"), and clamps a lifetime beyond 32
// bits of seconds to math.MaxUint32 rather than wrapping it around.
func TTLSeconds(ttl time.Duration) uint32 {
	if ttl <= 0 {
		return 0
	}
	return uint32(min((ttl-1)/time.Second+1, math.MaxUint32))
}

// Status is a response status code.
type Status uint8

// Response status codes.
const (
	// StatusOK indicates success.
	StatusOK Status = iota + 1
	// StatusNotFound indicates the key (or chunk) does not exist.
	StatusNotFound
	// StatusOutOfMemory indicates the store evicted-to-capacity and
	// still could not fit the item.
	StatusOutOfMemory
	// StatusError carries an error message in the response value.
	StatusError
	// StatusExists rejects an OpCompareSet whose Compare did not match
	// the stored version (memcached EXISTS / NOT_STORED semantics).
	StatusExists
	// StatusWrongEpoch rejects a request whose Epoch does not match the
	// server's current membership epoch. The response value carries the
	// server's encoded membership view so the sender can catch up (or,
	// when the sender is ahead, learn that this server needs a push) and
	// re-resolve placement before retrying.
	StatusWrongEpoch
)

var statusNames = map[Status]string{
	StatusOK:          "ok",
	StatusNotFound:    "not-found",
	StatusOutOfMemory: "out-of-memory",
	StatusError:       "error",
	StatusExists:      "exists",
	StatusWrongEpoch:  "wrong-epoch",
}

// String returns the status mnemonic.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Limits protecting against corrupt frames.
const (
	// MaxKeyLen bounds key length, larger than memcached's 250 to
	// accommodate derived chunk keys.
	MaxKeyLen = 512
	// MaxValueLen bounds a single frame's value (16 MB, well above
	// the paper's 1 MB pair sizes).
	MaxValueLen = 16 << 20
)

// Framing errors.
var (
	// ErrFrameTooLarge is returned when a frame exceeds the limits.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limits")
	// ErrMalformed is returned for structurally invalid frames.
	ErrMalformed = errors.New("wire: malformed frame")
)

// ECMeta is the erasure-coding metadata block attached to chunk
// operations so that any server (or a recovering client) can interpret
// a chunk in isolation.
type ECMeta struct {
	// ChunkIndex is this chunk's index in [0, K+M).
	ChunkIndex uint8
	// K is the number of data chunks.
	K uint8
	// M is the number of parity chunks.
	M uint8
	// TotalLen is the original (pre-split) value length in bytes.
	TotalLen uint32
	// Stripe identifies the write that produced this chunk. Chunks
	// from different writes of the same key never mix during decode
	// (stripe atomicity); higher stripe values win when complete
	// groups compete, giving approximate last-write-wins.
	Stripe uint64
}

// Request is a client-to-server (or server-to-server) message.
type Request struct {
	// ID correlates the response on a multiplexed connection.
	ID uint64
	// Op is the operation.
	Op Op
	// Key is the item key (for chunk ops, the derived chunk key). A
	// request read into a leased frame (Request.ReadPooled) lends its key
	// as it lends its value: both alias the frame until Release, so
	// whatever outlives the request — a key the store keeps — must be
	// cloned. A kept frame owns both.
	Key string
	// Value is the payload for writes; nil for reads.
	Value []byte
	// TTLSeconds is the item lifetime for Set-type operations;
	// 0 means no expiry, as in memcached.
	TTLSeconds uint32
	// Compare is the version an OpCompareSet demands of the stored
	// item (CompareAbsent = the key must not exist). On OpDelete a
	// non-zero Compare makes the delete conditional: it succeeds only
	// while the stored item's version equals Compare (the atomic
	// memcached `md C<cas>`, and the stripe-conditional deletes of a
	// failed write's unwind and a convergence's drains), answering
	// Exists otherwise. It is OpDelete's only condition: a server
	// refuses a delete that carries Meta.Stripe. Zero and ignored for
	// every other op.
	Compare uint64
	// Epoch is the sender's membership epoch. Servers reject data
	// operations whose epoch differs from their own with
	// StatusWrongEpoch (see membership); 0 means epoch-unaware and is
	// always accepted.
	Epoch uint64
	// Meta carries EC metadata for chunk and encode/decode ops.
	Meta ECMeta

	// ValuePool, when non-nil, marks Value as a buffer leased from that
	// pool whose ownership transfers to the wire layer with the request:
	// the frame encoder either copies the value (small values are
	// inlined into the header buffer) and releases the lease
	// immediately, or carries the buffer as a scatter-gather vector and
	// releases it once the frame has been written or abandoned. Senders
	// that pass a ValuePool must not touch Value after handing the
	// request to rpc.Round.Issue — on success OR failure.
	ValuePool *bufpool.Pool

	// lease/pool back a pooled read: Value aliases lease, which Release
	// returns to pool.
	lease []byte
	pool  *bufpool.Pool
}

// Release returns the pooled frame body a ReadRequestPooled call leased
// (Key and Value alias it) to its pool, and clears both. It is a safe
// no-op for requests that were not read in pooled mode or whose frame
// is kept, and idempotent for those that were. A leased frame lends its
// key and value until Release; a kept frame owns both.
func (r *Request) Release() {
	if r == nil || r.lease == nil {
		return
	}
	lease := r.lease
	r.lease, r.Key, r.Value = nil, "", nil
	r.pool.Put(lease)
}

// ReleaseValue returns the write-side value lease (ValuePool) without
// sending the request. The rpc layer calls it on failure paths that
// give up before the frame encoder could take ownership; it is a safe
// no-op when no lease is attached.
func (r *Request) ReleaseValue() {
	if r == nil || r.ValuePool == nil {
		return
	}
	pool := r.ValuePool
	r.ValuePool = nil
	pool.Put(r.Value)
	r.Value = nil
}

// Response is a server-to-client message.
type Response struct {
	// ID echoes the request ID.
	ID uint64
	// Status is the outcome.
	Status Status
	// Value is the payload for reads, or the error text when Status
	// is StatusError.
	Value []byte
	// TTLSeconds is the item's remaining lifetime in whole seconds on
	// read responses (0 = no expiry), rounded up so a sub-second
	// remainder never reads as immortal.
	TTLSeconds uint32
	// Meta echoes/propagates EC metadata (a Get of a chunk returns
	// the chunk's stored metadata so the client can decode). For
	// whole-value reads and writes Meta.Stripe carries the item's
	// version — the CAS token of the memcached surface.
	Meta ECMeta

	// lease/pool back a pooled read: Value aliases lease, which Release
	// returns to pool.
	lease []byte
	pool  *bufpool.Pool
}

// Release returns the pooled frame body a ReadPooled call leased
// (Value aliases it) to its pool. It is a safe no-op for responses that
// were not read in pooled mode, and idempotent for those that were. Value must not be used after Release; copy first if
// it escapes (e.g. is returned to an application caller).
func (r *Response) Release() {
	if r == nil || r.lease == nil {
		return
	}
	lease := r.lease
	r.lease, r.Value = nil, nil
	r.pool.Put(lease)
}

// Err converts an error response into a Go error (nil for StatusOK and
// a typed sentinel where one exists).
func (r *Response) Err() error {
	switch r.Status {
	case StatusOK:
		return nil
	case StatusNotFound:
		return ErrNotFound
	case StatusOutOfMemory:
		return ErrOutOfMemory
	case StatusExists:
		return ErrExists
	case StatusWrongEpoch:
		return ErrWrongEpoch
	default:
		return fmt.Errorf("wire: server error: %s", r.Value)
	}
}

// Sentinel errors corresponding to response statuses.
var (
	// ErrNotFound mirrors StatusNotFound.
	ErrNotFound = errors.New("wire: key not found")
	// ErrOutOfMemory mirrors StatusOutOfMemory.
	ErrOutOfMemory = errors.New("wire: server out of memory")
	// ErrExists mirrors StatusExists: the compare-set's expected
	// version did not match the stored item.
	ErrExists = errors.New("wire: version mismatch")
	// ErrWrongEpoch mirrors StatusWrongEpoch: the request's membership
	// epoch differs from the server's. The caller should refresh its
	// view and retry (core.Client does this transparently).
	ErrWrongEpoch = errors.New("wire: membership epoch mismatch")
)

/*
Plain frames (field blocks in fields.go):

	u32  frameLen (big-endian, the bytes after it)
	...  field block: request (reqFrame) or response (respFrame)
	...  key bytes (requests)
	...  value bytes, to the end of the frame

The op or status is the first byte after frameLen, so a reader can
decide where a frame's value goes before it parses anything else.
*/

// keepsValue reports whether the value of a plain request frame of op
// is kept: the writes whose value the server's store installs as it is.
// Request.ReadPooled reads such a value into an allocation of its own,
// never into pooled memory, so nothing has to copy it again. An OpBatch
// is not one — the server clones what it keeps out of the batch.
func keepsValue(op Op) bool {
	switch op {
	case OpSet, OpSetChunk, OpCompareSet:
		return true
	default:
		return false
	}
}

// checkRequestSize validates req against the frame limits.
func checkRequestSize(req *Request) error {
	if len(req.Key) > MaxKeyLen {
		return fmt.Errorf("%w: key %d bytes", ErrFrameTooLarge, len(req.Key))
	}
	if len(req.Value) > MaxValueLen {
		return fmt.Errorf("%w: value %d bytes", ErrFrameTooLarge, len(req.Value))
	}
	return nil
}

// header stores req's field block in f, which is zero. The header
// methods store field by field: a composite literal is built in a
// temporary and copied with wide loads of its narrow stores, which
// stalls store-to-load forwarding on every frame.
func (r *Request) header(f *fields) {
	f.code, f.id, f.keyLen = byte(r.Op), r.ID, len(r.Key)
	f.epoch, f.compare, f.ttl, f.meta = r.Epoch, r.Compare, r.TTLSeconds, r.Meta
}

// header stores resp's field block in f, which is zero.
func (r *Response) header(f *fields) {
	f.code, f.id, f.ttl, f.meta = byte(r.Status), r.ID, r.TTLSeconds, r.Meta
}

// appendFrameHeader appends a plain frame's length prefix and its field
// block f of shape s, for a frame whose key and value add rest bytes
// after the block.
func appendFrameHeader(buf []byte, s shape, f *fields, rest int) []byte {
	start := len(buf)
	buf = appendFields(append(buf, 0, 0, 0, 0), s, f)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4+rest))
	return buf
}

// AppendRequest serializes req onto buf and returns the extended
// slice. buf is grown once, to a bound on the frame size, instead of
// reallocating through repeated append growth.
func AppendRequest(buf []byte, req *Request) ([]byte, error) {
	if err := checkRequestSize(req); err != nil {
		return nil, err
	}
	buf = slices.Grow(buf, 4+maxReqHeaderLen+len(req.Key)+len(req.Value))
	var f fields
	req.header(&f)
	buf = appendFrameHeader(buf, reqFrame, &f, len(req.Key)+len(req.Value))
	buf = append(buf, req.Key...)
	return append(buf, req.Value...), nil
}

// parseHeader decodes the field block at the start of b, which belongs
// to a request frame of frameLen bytes, into r, overwriting every field.
// It returns the lengths of the block and the key once the key fits the
// frame and what is left over — the value — is within the limits.
func (r *Request) parseHeader(b []byte, frameLen int) (hdrLen, keyLen int, err error) {
	var f fields
	n, err := parseFields(b, reqFrame, &f)
	if err != nil {
		return 0, 0, err
	}
	if valueLen := frameLen - n - f.keyLen; valueLen < 0 || valueLen > MaxValueLen {
		return 0, 0, &FrameError{ID: f.id, Err: fmt.Errorf("%w: frame length mismatch", ErrMalformed)}
	}
	*r = Request{
		ID: f.id, Op: Op(f.code), TTLSeconds: f.ttl, Compare: f.compare, Epoch: f.epoch, Meta: f.meta,
	}
	return n, f.keyLen, nil
}

// parse decodes a request frame body into r, overwriting every field.
// The key and value alias body.
func (r *Request) parse(body []byte) error {
	n, keyLen, err := r.parseHeader(body, len(body))
	if err != nil {
		return err
	}
	r.Key = lentString(body[n : n+keyLen])
	if value := body[n+keyLen:]; len(value) > 0 {
		r.Value = value
	}
	return nil
}

// lentString returns b as a string without copying it. The string
// aliases b, so it is valid only while b is: a key lent out of a leased
// frame goes stale when the frame goes back to its pool.
func lentString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// ReadRequestPooled reads one request frame into a buffer leased from
// pool; the returned request's Key and Value alias that buffer — except
// in a kept frame (an OpSet, OpSetChunk or OpCompareSet), whose key is a
// string of its own and whose value is read into an exact-size
// allocation of its own, both of which the caller may keep. The caller
// must call Request.Release once it is done with a leased frame, to
// hand the buffer back for the next one. A nil pool reads into a plain
// allocation: the request owns its memory. A *FrameError means the
// frame was read whole but does not parse. On error no lease is
// retained.
func ReadRequestPooled(r *bufio.Reader, pool *bufpool.Pool) (*Request, error) {
	req := new(Request)
	if err := req.ReadPooled(r, pool); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadPooled is ReadRequestPooled into a request the caller owns: a
// connection's reader keeps one and reads every frame into it, so a
// leased frame costs no allocation at all. A leased frame lends its key
// and value until Release; a kept frame owns both. Every field is
// overwritten; the previous frame's lease must have been released (or
// handed on by copying the request) before the next read. A nil pool
// reads into a plain allocation that Release leaves to the collector.
// A *FrameError means the frame was consumed whole but does not parse:
// the reader may answer its ID and read on. br must be able to buffer
// the longest field block and the longest key (maxReqHeaderLen+MaxKeyLen
// bytes; bufio's default size can).
func (r *Request) ReadPooled(br *bufio.Reader, pool *bufpool.Pool) error {
	frameLen, err := readFrameLen(br, minReqHeaderLen)
	if err != nil {
		return err
	}
	// The op decides where the value goes. It is the first byte of the
	// body, which any bufio.Reader can buffer.
	head, err := br.Peek(1)
	if err != nil {
		return unexpectedEOF(err)
	}
	if keepsValue(Op(head[0])) {
		return r.readKept(br, frameLen)
	}
	body, err := readBody(br, frameLen, pool)
	if err != nil {
		return err
	}
	if err := r.parse(body); err != nil {
		if pool != nil {
			pool.Put(body)
		}
		return err
	}
	if pool != nil {
		r.lease, r.pool = body, pool
	}
	return nil
}

// readKept reads the rest of a frame whose value is kept. The field
// block and the key are parsed where they lie in br's buffer, and
// checked before anything is allocated; the key is copied into a string
// of its own and the value read straight from br into an exact-size
// allocation that nothing else references — the store installs both as
// they are. No pool is involved, so Release has nothing to return. A
// frame that does not parse is discarded whole.
//
// The peeks ask for no more than the block and the key take — what is
// buffered already, then the longest block if that was cut short, then
// exactly block and key: a peek past them would wait for value bytes and
// pull them into br's buffer, and a value of the buffer's size or more
// would no longer be read straight into its allocation.
func (r *Request) readKept(br *bufio.Reader, frameLen int) error {
	peek, block := min(frameLen, max(br.Buffered(), minReqHeaderLen)), min(frameLen, maxReqHeaderLen)
	var hdr []byte
	var n, keyLen int
	for {
		var err error
		if hdr, err = br.Peek(peek); err != nil {
			return unexpectedEOF(err)
		}
		n, keyLen, err = r.parseHeader(hdr, frameLen)
		if err != nil && peek < block {
			peek = block // the block may run past what was buffered
			continue
		}
		if err != nil {
			if _, derr := br.Discard(frameLen); derr != nil {
				return unexpectedEOF(derr)
			}
			return err
		}
		if n+keyLen <= len(hdr) {
			break
		}
		peek = n + keyLen
	}
	r.Key = string(hdr[n : n+keyLen])
	_, _ = br.Discard(n + keyLen) // cannot fail: block and key are buffered
	if valueLen := frameLen - n - keyLen; valueLen > 0 {
		r.Value = make([]byte, valueLen)
		if _, err := io.ReadFull(br, r.Value); err != nil {
			return unexpectedEOF(err)
		}
	}
	return nil
}

// AppendResponse serializes resp onto buf and returns the extended
// slice, growing buf once to a bound on the frame size.
func AppendResponse(buf []byte, resp *Response) ([]byte, error) {
	if len(resp.Value) > MaxValueLen {
		return nil, fmt.Errorf("%w: value %d bytes", ErrFrameTooLarge, len(resp.Value))
	}
	buf = slices.Grow(buf, 4+maxRespHeaderLen+len(resp.Value))
	var f fields
	resp.header(&f)
	buf = appendFrameHeader(buf, respFrame, &f, len(resp.Value))
	return append(buf, resp.Value...), nil
}

// WriteResponse writes one response frame to w.
func WriteResponse(w io.Writer, resp *Response) error {
	buf, err := AppendResponse(nil, resp)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// parse decodes a response frame body into r, overwriting every field;
// the value aliases body.
func (r *Response) parse(body []byte) error {
	var f fields
	n, err := parseFields(body, respFrame, &f)
	if err != nil {
		return err
	}
	value := body[n:]
	if len(value) > MaxValueLen {
		return &FrameError{ID: f.id, Err: fmt.Errorf("%w: value %d bytes", ErrMalformed, len(value))}
	}
	// Field by field: a composite literal would be built aside and copied.
	r.ID, r.Status, r.TTLSeconds, r.Meta = f.id, Status(f.code), f.ttl, f.meta
	r.Value, r.lease, r.pool = nil, nil, nil
	if len(value) > 0 {
		r.Value = value
	}
	return nil
}

// ReadPooled reads one response frame into r, which the caller owns (a
// connection's reader keeps one and copies it, lease and all, into the
// waiting call's slot), with the frame body leased from pool: r.Value
// aliases it until Release. Every field is overwritten. A nil pool
// reads into a plain allocation that Release leaves to the collector.
func (r *Response) ReadPooled(br *bufio.Reader, pool *bufpool.Pool) error {
	body, err := readFramePooled(br, minRespHeaderLen, pool)
	if err != nil {
		return err
	}
	if err := r.parse(body); err != nil {
		if pool != nil {
			pool.Put(body)
		}
		return err
	}
	if pool != nil {
		r.lease, r.pool = body, pool
	}
	return nil
}

// readFramePooled reads the length prefix and frame body, enforcing
// limits, with the body drawn from pool (plain allocation when pool is
// nil). On error the buffer is returned to the pool before the call
// returns.
func readFramePooled(r *bufio.Reader, minLen int, pool *bufpool.Pool) ([]byte, error) {
	frameLen, err := readFrameLen(r, minLen)
	if err != nil {
		return nil, err
	}
	return readBody(r, frameLen, pool)
}

// readFrameLen reads the length prefix and checks it against the
// limits, before anything past it is read.
func readFrameLen(r *bufio.Reader, minLen int) (int, error) {
	// The length prefix is read where it lies in the reader's buffer: a
	// local array handed to io.ReadFull would escape to the heap.
	prefix, err := r.Peek(4)
	if err != nil {
		if len(prefix) > 0 {
			err = unexpectedEOF(err)
		}
		return 0, err // io.EOF on clean close
	}
	frameLen := int(binary.BigEndian.Uint32(prefix))
	_, _ = r.Discard(4) // cannot fail: the four bytes are buffered
	if frameLen < minLen {
		return 0, fmt.Errorf("%w: frame too short (%d)", ErrMalformed, frameLen)
	}
	if frameLen > MaxValueLen+MaxKeyLen+maxReqHeaderLen {
		return 0, ErrFrameTooLarge
	}
	return frameLen, nil
}

// readBody reads a frame body of frameLen bytes into a buffer drawn
// from pool (plain allocation when pool is nil), which goes back to the
// pool if the read fails.
func readBody(r *bufio.Reader, frameLen int, pool *bufpool.Pool) ([]byte, error) {
	var body []byte
	if pool != nil {
		body = pool.GetRaw(frameLen)
	} else {
		body = make([]byte, frameLen)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		if pool != nil {
			pool.Put(body)
		}
		return nil, unexpectedEOF(err)
	}
	return body, nil
}

// unexpectedEOF reports a stream that ended inside a frame as
// io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
