// Package server implements the key-value store server: per-connection
// readers that run store-local requests to completion (memcached's
// worker-owns-connection model), the item store, and behind them a
// worker pool (the paper's 8 workers) as the server-side Asynchronous
// Request Processing Engine that talks to peer servers to execute the
// server-side encode (Era-SE-*) and decode (Era-*-SD) schemes.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"strings"
	"sync"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/membership"
	"ecstore/internal/metrics"
	"ecstore/internal/rpc"
	"ecstore/internal/stats"
	"ecstore/internal/store"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// DefaultWorkers matches the paper's per-server worker thread count.
const DefaultWorkers = 8

// DefaultPeerTimeout bounds each peer RPC round trip issued by the
// server-side encode/decode coordinator, so one hung peer cannot wedge
// a worker forever.
const DefaultPeerTimeout = 15 * time.Second

// Config configures a Server.
type Config struct {
	// Addr is the address to listen on.
	Addr string
	// Network is the transport to listen/dial through.
	Network transport.Network
	// Peers lists every server address in the cluster, including this
	// one. It seeds the epoch-1 membership view whose consistent-hashing
	// ring locates chunk placements for the server-side schemes; newer
	// views arrive over the wire (OpRingUpdate). May be nil for a
	// standalone server.
	Peers []string
	// Store configures the item store.
	Store store.Config
	// Workers sets the size of the worker pool for the operations a
	// reader hands off (runsOnWorker); DefaultWorkers if zero.
	Workers int
	// PeerTimeout bounds each RPC to a peer server during server-side
	// encode/decode (DefaultPeerTimeout if zero; negative disables
	// deadlines).
	PeerTimeout time.Duration
	// Logf receives diagnostics; log.Printf if nil.
	Logf func(format string, args ...any)
	// Metrics receives the server's counters, gauges, and latency
	// histograms (ecstore_server_*, ecstore_store_*, and the rpc_*
	// series of the peer pool). A fresh registry is created when nil,
	// reachable via Server.Metrics, so instrumentation is always on.
	Metrics *metrics.Registry
	// FramePool is the buffer pool request bodies and response frames
	// are leased from (bufpool.Default if nil, shared with the codec).
	FramePool *bufpool.Pool
}

// Server is a running key-value store server.
type Server struct {
	cfg      Config
	listener transport.Listener
	store    *store.Store
	view     *membership.Tracker
	peers    *rpc.Pool
	jobs     chan job
	quit     chan struct{}
	logf     func(format string, args ...any)

	reg            *metrics.Registry
	mOps           map[wire.Op]*metrics.Counter
	mOpsUnknown    *metrics.Counter
	mOpErrors      *metrics.Counter
	hHandleSeconds *stats.Histogram

	mu     sync.Mutex
	conns  map[*connWriter]struct{}
	closed bool

	wg sync.WaitGroup

	// codes caches constructed erasure codecs by {K, M}. A sync.Map —
	// not a mutex-guarded map — because the codecs themselves (matrix,
	// inversion cache, worker pool) are concurrency-safe: the old global
	// codeMu serialized every server-side encode/decode across all
	// workers, flattening Era-SE-* throughput at exactly the point the
	// worker pool was supposed to scale it.
	codes sync.Map // map[[2]int]*erasure.RSVan

	framePool *bufpool.Pool
}

// job is a request on its way to a worker. The request rides by value:
// the reader parses every frame into one per-connection request, so what
// is queued must be a copy — which takes the frame lease with it.
type job struct {
	req wire.Request
	out *connWriter
}

// connWriter serializes response writes for one connection through a
// FrameQueue: the reader and the workers encode response frames
// concurrently (no shared lock) and enqueue them; whoever finds the
// queue idle writes, and what piles up behind that write goes out as one
// vectored batch, so answers to a window of requests share syscalls.
type connWriter struct {
	conn transport.Conn
	fq   *wire.FrameQueue
	pool *bufpool.Pool
}

// respQueueDepth bounds encoded-but-unwritten responses per connection;
// beyond it reader and workers block on Enqueue, which is the desired
// flow control (a slow peer should stall its own responses, not the box).
const respQueueDepth = 256

func newConnWriter(conn transport.Conn, pool *bufpool.Pool) *connWriter {
	cw := &connWriter{conn: conn, pool: pool}
	// A write error means the peer is gone: close the conn so the read
	// loop exits and tears the connection down.
	cw.fq = wire.NewFrameQueue(conn, respQueueDepth, pool, func(error) { _ = conn.Close() })
	return cw
}

func (cw *connWriter) write(resp *wire.Response) error {
	frame, err := wire.EncodeResponseFrame(cw.pool, resp)
	if err != nil {
		return err
	}
	return cw.fq.Enqueue(frame)
}

// New creates and starts a server listening on cfg.Addr.
func New(cfg Config) (*Server, error) {
	if cfg.Network == nil {
		return nil, errors.New("server: Config.Network is required")
	}
	ln, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server listen %s: %w", cfg.Addr, err)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	peerTimeout := cfg.PeerTimeout
	switch {
	case peerTimeout == 0:
		peerTimeout = DefaultPeerTimeout
	case peerTimeout < 0:
		peerTimeout = 0 // deadlines disabled
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	framePool := cfg.FramePool
	if framePool == nil {
		framePool = bufpool.Default
	}
	s := &Server{
		cfg:      cfg,
		listener: ln,
		store:    store.New(cfg.Store),
		view:     membership.NewTracker(membership.NewView(cfg.Peers), 0),
		peers:    rpc.NewPool(cfg.Network, rpc.WithCallTimeout(peerTimeout), rpc.WithMetrics(reg)),
		// The job queue is sized to keep every worker busy while the
		// readers stay responsive; beyond that, backpressure blocks
		// the connection reader, which is the desired flow control.
		jobs:      make(chan job, workers*2),
		quit:      make(chan struct{}),
		logf:      logf,
		conns:     make(map[*connWriter]struct{}),
		framePool: framePool,

		reg:            reg,
		mOpsUnknown:    reg.Counter(`ecstore_server_ops_total{op="unknown"}`),
		mOpErrors:      reg.Counter("ecstore_server_op_errors_total"),
		hHandleSeconds: reg.Histogram("ecstore_server_handle_seconds"),
	}
	s.mOps = make(map[wire.Op]*metrics.Counter)
	for _, op := range []wire.Op{
		wire.OpSet, wire.OpGet, wire.OpDelete, wire.OpSetChunk, wire.OpGetChunk,
		wire.OpEncodeSet, wire.OpDecodeGet, wire.OpStats, wire.OpPing, wire.OpScan,
		wire.OpCompareSet, wire.OpFlush, wire.OpBatch, wire.OpRingGet, wire.OpRingUpdate,
		wire.OpApplyDelta,
	} {
		s.mOps[op] = reg.Counter(fmt.Sprintf("ecstore_server_ops_total{op=%q}", op))
	}
	s.store.RegisterMetrics(reg)
	// The queue depth is read through the channel at snapshot time
	// rather than kept as an inc/dec pair, so it can never drift.
	reg.RegisterFunc("ecstore_server_job_queue_depth", func() int64 { return int64(len(s.jobs)) })
	reg.RegisterFunc("ecstore_server_membership_epoch", func() int64 { return int64(s.view.Epoch()) })
	reg.Gauge("ecstore_server_workers").Set(int64(workers))
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the resolved listen address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Store exposes the underlying item store (used by stats and tests).
func (s *Server) Store() *store.Store { return s.store }

// View returns the server's current membership view.
func (s *Server) View() membership.View { return s.view.Current() }

// AdoptView offers the server a membership view out of band (the
// harness uses it to seed a restarted node); the wire path is
// OpRingUpdate. Reports whether the view was newer and installed.
func (s *Server) AdoptView(v membership.View) bool { return s.view.Adopt(v) }

// Metrics returns the server's metrics registry — the same registry an
// OpStats request serializes and the -metrics-addr endpoint scrapes.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Close stops the server: the listener closes, open connections are
// torn down, and workers drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*connWriter, 0, len(s.conns))
	for cw := range s.conns {
		conns = append(conns, cw)
	}
	s.mu.Unlock()

	close(s.quit)
	_ = s.listener.Close()
	for _, cw := range conns {
		_ = cw.conn.Close()
	}
	s.peers.Close()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		cw := newConnWriter(conn, s.framePool)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[cw] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.readLoop(conn, cw)
	}
}

func (s *Server) readLoop(conn transport.Conn, cw *connWriter) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, cw)
		s.mu.Unlock()
		_ = conn.Close()
		// Wait out a worker still flushing responses (the closed conn
		// fails its write); workers racing a teardown get
		// ErrQueueClosed (their frames are released by Enqueue).
		_ = cw.fq.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	// Every frame is parsed into this one request. An op served here is
	// done with it before the next frame is read (serve releases the body
	// before it writes the answer); an op for the workers is copied into
	// its job.
	var req wire.Request
	for {
		if err := req.ReadPooled(br, s.framePool); err != nil {
			var bad *wire.FrameError
			if errors.As(err, &bad) {
				// Read whole but unparsable (an unknown op, impossible
				// geometry): the stream is still in step, so answer the
				// request with an error and read on.
				s.mOpErrors.Inc()
				_ = cw.write(&wire.Response{ID: bad.ID, Status: wire.StatusError, Value: []byte(bad.Error())})
				continue
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, transport.ErrClosed) {
				s.logf("server %s: read: %v", s.cfg.Addr, err)
			}
			return
		}
		if !runsOnWorker(req.Op) {
			s.serve(&req, cw)
			continue
		}
		select {
		case s.jobs <- job{req: req, out: cw}:
		case <-s.quit:
			req.Release()
			return
		}
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.jobs:
			s.serve(&j.req, j.out)
		case <-s.quit:
			return
		}
	}
}

// serve executes one request and answers it, on whichever goroutine the
// routing rule picked: the connection's reader or a pool worker.
func (s *Server) serve(req *wire.Request, out *connWriter) {
	start := time.Now()
	resp := s.handle(req)
	s.hHandleSeconds.Record(time.Since(start))
	resp.ID = req.ID
	// The handlers never let a leased request body escape: a kept frame's
	// key and value (OpSet, OpSetChunk, OpCompareSet) were read into
	// allocations of their own, which the store installs as they are;
	// every other key or value the store keeps is a private copy (a
	// batch's writes, a patched chunk and its key), and the rest only
	// look up what the leased key names. What a read returns is the
	// store's own slice — lent, immutable once installed, so the response
	// may alias it for as long as the write takes. The leased frame body,
	// if any, can therefore go back to the pool before the write.
	req.Release()
	// A write error means the connection died; its read loop cleans up.
	_ = out.write(&resp)
}

func errorResponse(err error) wire.Response {
	switch {
	case errors.Is(err, wire.ErrNotFound):
		return wire.Response{Status: wire.StatusNotFound}
	case errors.Is(err, store.ErrOutOfMemory), errors.Is(err, store.ErrValueTooLarge):
		return wire.Response{Status: wire.StatusOutOfMemory}
	default:
		return wire.Response{Status: wire.StatusError, Value: []byte(err.Error())}
	}
}

func (s *Server) handle(req *wire.Request) wire.Response {
	if c, ok := s.mOps[req.Op]; ok {
		c.Inc()
	} else {
		s.mOpsUnknown.Inc()
	}
	resp := s.dispatch(req)
	// Not-found and a lost CAS race are normal cache outcomes, not
	// server errors.
	if resp.Status != wire.StatusOK && resp.Status != wire.StatusNotFound &&
		resp.Status != wire.StatusExists {
		s.mOpErrors.Inc()
	}
	return resp
}

// epochExempt lists the operations served regardless of the request's
// membership epoch: liveness, stats, the ring protocol itself — a
// stale party must always be able to probe and catch up — and the
// address-directed fan-outs (flush, scan) whose semantics do not
// depend on placement agreement.
func epochExempt(op wire.Op) bool {
	switch op {
	case wire.OpPing, wire.OpStats, wire.OpRingGet, wire.OpRingUpdate,
		wire.OpFlush, wire.OpScan:
		return true
	default:
		return false
	}
}

func (s *Server) dispatch(req *wire.Request) wire.Response {
	// Membership epoch gate (DESIGN §13): a data request stamped with
	// an epoch other than ours was placed against a different ring.
	// Reject it with our encoded view — a stale sender adopts it and
	// retries; a newer sender pushes its view (OpRingUpdate) first.
	// Epoch 0 marks an epoch-unaware sender (peer chunk traffic,
	// legacy tools) and is always accepted: those requests are
	// address-directed, not placement-derived.
	if req.Epoch != 0 && !epochExempt(req.Op) {
		if cur := s.view.Current(); req.Epoch != cur.Epoch {
			return wire.Response{Status: wire.StatusWrongEpoch, Value: cur.Encode()}
		}
	}
	switch req.Op {
	case wire.OpPing:
		return wire.Response{Status: wire.StatusOK}
	case wire.OpRingGet:
		return wire.Response{Status: wire.StatusOK, Value: s.view.Current().Encode()}
	case wire.OpRingUpdate:
		v, err := membership.Decode(req.Value)
		if err != nil {
			return errorResponse(err)
		}
		s.view.Adopt(v)
		// Answer with the now-current view: the pusher learns whether it
		// was adopted or superseded by something even newer.
		return wire.Response{Status: wire.StatusOK, Value: s.view.Current().Encode()}
	case wire.OpSet, wire.OpSetChunk:
		// Meta.Stripe doubles as the item version (chunk writes already
		// carry their stripe there; whole-value writers mint one the same
		// way), so every replica of a logical write stores one CAS token.
		if err := s.store.SetVersioned(req.Key, req.Value, time.Duration(req.TTLSeconds)*time.Second, req.Meta.Stripe); err != nil {
			return errorResponse(err)
		}
		return wire.Response{Status: wire.StatusOK, Meta: wire.ECMeta{Stripe: req.Meta.Stripe}}
	case wire.OpGet, wire.OpGetChunk:
		v, version, ttl, ok := s.store.GetMeta(req.Key)
		if !ok {
			return wire.Response{Status: wire.StatusNotFound}
		}
		return wire.Response{
			Status: wire.StatusOK, Value: v,
			Meta: wire.ECMeta{Stripe: version}, TTLSeconds: wire.TTLSeconds(ttl),
		}
	case wire.OpCompareSet:
		return s.handleCompareSet(req)
	case wire.OpApplyDelta:
		return s.handleApplyDelta(req)
	case wire.OpFlush:
		s.store.Flush()
		return wire.Response{Status: wire.StatusOK}
	case wire.OpDelete:
		// A delete carrying Compare is the atomic conditional delete
		// behind the proxy's `md C<cas>`: it removes the item only while
		// the stored version still equals Compare, under one shard lock
		// (no check-then-delete window).
		if req.Compare != 0 {
			out, prior := s.store.CompareDelete(req.Key, req.Compare)
			resp := wire.Response{Meta: wire.ECMeta{Stripe: prior}}
			switch out {
			case store.CASStored:
				resp.Status = wire.StatusOK
			case store.CASNotFound:
				resp.Status = wire.StatusNotFound
			default:
				resp.Status = wire.StatusExists
			}
			return resp
		}
		// A delete carrying a stripe ID is conditional: it removes the
		// chunk only while the item's version — the chunk's stripe — is
		// still that stripe, under one shard lock. The client's
		// failed-write unwind uses this so it never deletes a chunk a
		// concurrent newer Set has already overwritten; another version
		// is answered OK, as there is nothing to unwind.
		if req.Meta.Stripe != 0 {
			if out, _ := s.store.CompareDelete(req.Key, req.Meta.Stripe); out == store.CASNotFound {
				return wire.Response{Status: wire.StatusNotFound}
			}
			return wire.Response{Status: wire.StatusOK}
		}
		if !s.store.Delete(req.Key) {
			return wire.Response{Status: wire.StatusNotFound}
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpScan:
		return s.handleScan(req)
	case wire.OpEncodeSet:
		return s.handleEncodeSet(req)
	case wire.OpDecodeGet:
		return s.handleDecodeGet(req)
	case wire.OpBatch:
		return s.handleBatch(req)
	case wire.OpStats:
		// The payload keeps the historical flat store.Stats keys at the
		// top level (old clients keep decoding) and nests the full
		// metrics snapshot under "metrics" for new ones.
		data, err := json.Marshal(struct {
			store.Stats
			Metrics metrics.Snapshot `json:"metrics"`
		}{Stats: s.store.Stats(), Metrics: s.reg.Snapshot()})
		if err != nil {
			return errorResponse(err)
		}
		return wire.Response{Status: wire.StatusOK, Value: data}
	default:
		return wire.Response{Status: wire.StatusError, Value: []byte("unknown op")}
	}
}

// handleCompareSet implements the conditional write behind the proxy's
// cas/add family. req.Compare is the expected stored version
// (wire.CompareAbsent means the key must be absent) and req.Meta.Stripe
// is the version to install. Chunk-mode requests (Meta.K > 0) tolerate
// a missing chunk — an erasure-coded CAS must be able to re-materialise
// a chunk that one server evicted while the stripe as a whole is still
// readable — and the response's Meta.Stripe reports the prior version
// so the client can tell a genuinely absent stripe from a conflict.
func (s *Server) handleCompareSet(req *wire.Request) wire.Response {
	allowMissing := req.Meta.K > 0
	ttl := time.Duration(req.TTLSeconds) * time.Second
	out, prior, err := s.store.CompareSwap(req.Key, req.Value, ttl, req.Compare, req.Meta.Stripe, allowMissing)
	if err != nil {
		return errorResponse(err)
	}
	resp := wire.Response{Meta: wire.ECMeta{Stripe: prior}}
	switch out {
	case store.CASStored:
		resp.Status = wire.StatusOK
	case store.CASNotFound:
		resp.Status = wire.StatusNotFound
	default:
		resp.Status = wire.StatusExists
	}
	return resp
}

// handleApplyDelta patches one stored erasure chunk in place — the
// server side of the delta overwrite path. req.Compare is the stripe
// the patch was computed against, req.Meta.Stripe the new stripe to
// install, and req.Value the sparse XOR patch. The flow is
// read-patch-swap: the chunk is read with its version, patched in a
// private copy (made here: the store lends its slice read-only, and a
// reader may be holding it), and that copy is installed as it is only
// while the stored version STILL equals the base stripe — so a
// concurrent write between read and swap loses nothing, and a chunk can
// never end up a blend of two stripes. A version mismatch answers
// StatusExists with the holder's current stripe, exactly like a lost
// CAS; an absent chunk answers StatusNotFound (a delta cannot
// re-materialise what it has nothing to patch). Malformed or mismatched
// patches are errors and leave the chunk untouched.
func (s *Server) handleApplyDelta(req *wire.Request) wire.Response {
	stored, version, _, ok := s.store.GetMeta(req.Key)
	if !ok {
		return wire.Response{Status: wire.StatusNotFound}
	}
	if version != req.Compare {
		return wire.Response{Status: wire.StatusExists, Meta: wire.ECMeta{Stripe: version}}
	}
	v := append([]byte(nil), stored...)
	if err := wire.ApplyDeltaPatch(v, req.Value, req.Meta); err != nil {
		return errorResponse(err)
	}
	ttl := time.Duration(req.TTLSeconds) * time.Second
	// The key is cloned out of the leased frame too: when the entry is
	// gone by the time of the swap — expired or deleted since GetMeta —
	// and the base was unversioned (Compare 0), CompareSwap inserts the
	// key afresh.
	out, prior, err := s.store.CompareSwap(strings.Clone(req.Key), v, ttl, req.Compare, req.Meta.Stripe, false)
	if err != nil {
		return errorResponse(err)
	}
	switch out {
	case store.CASStored:
		return wire.Response{Status: wire.StatusOK, Meta: wire.ECMeta{Stripe: req.Meta.Stripe}}
	case store.CASNotFound:
		return wire.Response{Status: wire.StatusNotFound}
	default:
		return wire.Response{Status: wire.StatusExists, Meta: wire.ECMeta{Stripe: prior}}
	}
}

// handleScan serves one page of the keyspace: it resumes at the
// request's cursor, walks shards in order (releasing each shard's lock
// between pages — the store's ScanShard contract), and returns the
// keys plus the next cursor. An empty next cursor means the scan is
// complete.
func (s *Server) handleScan(req *wire.Request) wire.Response {
	cur, err := wire.DecodeScanCursor(req.Value)
	if err != nil {
		return errorResponse(err)
	}
	limit := int(req.Meta.TotalLen)
	if limit <= 0 {
		limit = wire.DefaultScanLimit
	}
	if limit > wire.MaxScanLimit {
		limit = wire.MaxScanLimit
	}
	shard, after := int(cur.Shard), cur.After
	keys := make([]string, 0, limit)
	for shard < s.store.Shards() && len(keys) < limit {
		page := s.store.ScanShard(shard, after, limit-len(keys))
		keys = append(keys, page...)
		if len(keys) < limit {
			// Shard exhausted: move to the next one from its start.
			shard, after = shard+1, ""
			continue
		}
		after = keys[len(keys)-1]
	}
	out := wire.ScanPage{Keys: keys}
	if shard < s.store.Shards() {
		out.Next = wire.EncodeScanCursor(wire.ScanCursor{Shard: uint32(shard), After: after})
	}
	return wire.Response{Status: wire.StatusOK, Value: wire.EncodeScanPage(out)}
}
