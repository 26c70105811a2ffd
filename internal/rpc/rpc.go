// Package rpc provides the multiplexed request/response machinery both
// sides of the system share: the key-value client uses it to talk to
// servers, and servers use it to talk to their peers for the
// server-side encode/decode schemes.
//
// One connection is maintained per remote address. Requests are framed
// with package wire and correlated by ID, so many operations can be in
// flight on a single connection — the transport-level analogue of the
// paper's non-blocking RDMA verbs.
//
// The pool is also the failure detector: every call can carry a
// deadline (completed with ErrTimeout by a timer when the response
// does not arrive), and a per-server health tracker turns consecutive
// failures into a "suspect" state in which requests fail fast and only
// periodic probes — spaced with exponential backoff and jitter — are
// let through to detect recovery. Callers therefore never block
// indefinitely on a hung server and never pay a fresh dial per request
// to a known-dead one.
package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/metrics"
	"ecstore/internal/stats"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// ErrServerDown is returned when the remote cannot be dialed, the
// connection fails mid-call, or the server is suspect and not due for
// a probe. Callers treat it as a node failure and fall back to
// replicas or parity chunks.
var ErrServerDown = errors.New("rpc: server down")

// ErrTimeout is returned when a call's deadline expires before the
// response arrives. The server may still be processing the request;
// only idempotent operations are safe to retry.
var ErrTimeout = errors.New("rpc: call timed out")

// IsUnavailable reports whether err means the server did not usefully
// answer — down, suspect, or past its deadline — and a replica, parity
// chunk, or (for idempotent operations) a retry should be used instead.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrServerDown) || errors.Is(err, ErrTimeout)
}

// Call is a pending request. Exactly one of Resp/Err is set once Done
// is closed.
type Call struct {
	done chan struct{}

	mu        sync.Mutex
	completed bool
	resp      *wire.Response
	err       error
	timer     *time.Timer

	// sent is set once the call's frame has been written or handed to
	// the connection's flusher; a deadline that fires before that found
	// the caller still blocked on the send side.
	sent atomic.Bool

	// onDone, when non-nil, observes the completion error exactly once
	// (the pool's health tracker). It is set before the call can
	// complete and never mutated afterwards.
	onDone func(error)
}

func newCall() *Call { return &Call{done: make(chan struct{})} }

// Done returns a channel closed when the call completes.
func (c *Call) Done() <-chan struct{} { return c.done }

// Ready reports whether the call has completed without blocking.
func (c *Call) Ready() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the call completes and returns its response. The
// response's Value may alias a pooled frame buffer: call
// Response.Release once done with it (copy the value first if it
// outlives the call), or let the garbage collector have it at the cost
// of a pool miss.
func (c *Call) Wait() (*wire.Response, error) {
	<-c.done
	return c.resp, c.err
}

// complete finishes the call exactly once; a late completion (a
// response racing the deadline timer, or vice versa) is dropped. It
// reports whether this completion was the one delivered — a false
// return means resp was NOT handed to the caller, so a pooled response
// must be released by whoever called complete.
func (c *Call) complete(resp *wire.Response, err error) bool {
	c.mu.Lock()
	if c.completed {
		c.mu.Unlock()
		return false
	}
	c.completed = true
	c.resp, c.err = resp, err
	timer := c.timer
	c.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	close(c.done)
	if c.onDone != nil {
		c.onDone(err)
	}
	return true
}

// arm starts the deadline timer unless the call already completed.
func (c *Call) arm(d time.Duration, expire func()) {
	c.mu.Lock()
	if !c.completed {
		c.timer = time.AfterFunc(d, expire)
	}
	c.mu.Unlock()
}

// Option configures a Pool.
type Option func(*Pool)

// WithCallTimeout sets the default per-call deadline; 0 (the initial
// default) disables deadlines. SendTimeout overrides it per call.
func WithCallTimeout(d time.Duration) Option {
	return func(p *Pool) { p.timeout = d }
}

// WithFailureThreshold sets how many consecutive failures move a
// server to the suspect state (DefaultFailureThreshold if unset).
func WithFailureThreshold(n int) Option {
	return func(p *Pool) {
		if n > 0 {
			p.failThreshold = n
		}
	}
}

// WithProbeBackoff sets the bounds of the suspect-probe schedule: the
// first probe is due ~base after the suspect transition, and the
// interval doubles (with jitter) up to max.
func WithProbeBackoff(base, max time.Duration) Option {
	return func(p *Pool) {
		if base > 0 {
			p.probeBase = base
		}
		if max >= base && max > 0 {
			p.probeMax = max
		}
	}
}

// WithFramePool sets the buffer pool frames and read bodies are leased
// from. The default is bufpool.Default (shared with the erasure codec);
// a nil pool disables pooling — every frame allocates and releases are
// no-ops, useful for isolating pool bugs.
func WithFramePool(pool *bufpool.Pool) Option {
	return func(p *Pool) { p.framePool = pool }
}

// WithMetrics publishes the pool's counters into reg: calls issued,
// completions by outcome (ok / timeout / error), sends suppressed by
// the suspect fast-fail, dials and dial failures, health-state
// transitions, the number of currently suspect servers, and a
// call-latency histogram. A nil registry (the default) discards all
// of it.
func WithMetrics(reg *metrics.Registry) Option {
	return func(p *Pool) { p.reg = reg }
}

// Pool manages one multiplexed connection per remote address. It is
// safe for concurrent use.
type Pool struct {
	network       transport.Network
	timeout       time.Duration
	failThreshold int
	probeBase     time.Duration
	probeMax      time.Duration
	reg           *metrics.Registry
	framePool     *bufpool.Pool

	// Metric handles are resolved once at construction so the hot send
	// path pays one atomic op per event, not a registry lookup.
	mCalls       *metrics.Counter
	mOK          *metrics.Counter
	mTimeouts    *metrics.Counter
	mCallErrors  *metrics.Counter
	mSendErrors  *metrics.Counter
	mFailFast    *metrics.Counter
	mDials       *metrics.Counter
	mDialErrors  *metrics.Counter
	mToSuspect   *metrics.Counter
	mRecoveries  *metrics.Counter
	gSuspect     *metrics.Gauge
	hCallSeconds *stats.Histogram

	// epochSource, when set, supplies the sender's membership epoch;
	// SendTimeout stamps it onto every request that is not already
	// stamped, so all call sites — strategies, bulk batches, scans —
	// carry the epoch without threading it through each request
	// literal. Atomic: the send path must not take the pool lock.
	epochSource atomic.Pointer[func() uint64]

	mu         sync.Mutex
	conns      map[string]*muxConn
	health     map[string]*health
	onRecovery func(addr string)
	closed     bool
}

// SetEpochSource registers fn as the pool's membership-epoch supplier.
// Every subsequent request sent with a zero Epoch is stamped with
// fn()'s value at send time.
func (p *Pool) SetEpochSource(fn func() uint64) {
	p.epochSource.Store(&fn)
}

// NewPool returns a Pool dialing through network.
func NewPool(network transport.Network, opts ...Option) *Pool {
	p := &Pool{
		network:       network,
		conns:         make(map[string]*muxConn),
		health:        make(map[string]*health),
		failThreshold: DefaultFailureThreshold,
		probeBase:     DefaultProbeBase,
		probeMax:      DefaultProbeMax,
		framePool:     bufpool.Default,
	}
	for _, o := range opts {
		o(p)
	}
	p.mCalls = p.reg.Counter("ecstore_rpc_calls_total")
	p.mOK = p.reg.Counter("ecstore_rpc_ok_total")
	p.mTimeouts = p.reg.Counter("ecstore_rpc_timeouts_total")
	p.mCallErrors = p.reg.Counter("ecstore_rpc_call_errors_total")
	p.mSendErrors = p.reg.Counter("ecstore_rpc_send_errors_total")
	p.mFailFast = p.reg.Counter("ecstore_rpc_failfast_total")
	p.mDials = p.reg.Counter("ecstore_rpc_dials_total")
	p.mDialErrors = p.reg.Counter("ecstore_rpc_dial_errors_total")
	p.mToSuspect = p.reg.Counter("ecstore_rpc_suspect_transitions_total")
	p.mRecoveries = p.reg.Counter("ecstore_rpc_recoveries_total")
	p.gSuspect = p.reg.Gauge("ecstore_rpc_suspect_servers")
	p.hCallSeconds = p.reg.Histogram("ecstore_rpc_call_seconds")
	return p
}

// FramePool returns the buffer pool this pool leases frames from (nil
// when pooling is disabled). Callers building pooled request values —
// e.g. chunk payloads handed over via Request.ValuePool — should lease
// from it so buffers recycle within one pool.
func (p *Pool) FramePool() *bufpool.Pool { return p.framePool }

// Send issues req to addr and returns the pending Call under the
// pool's default deadline. Dial happens lazily; a broken connection is
// dropped so the next Send redials.
func (p *Pool) Send(addr string, req *wire.Request) (*Call, error) {
	return p.SendTimeout(addr, req, p.timeout)
}

// SendTimeout is Send with an explicit per-call deadline (0 = none).
// A suspect server that is not due for a probe fails immediately with
// an error wrapping ErrServerDown — no dial is attempted. The request is
// written before SendTimeout returns unless another sender is already
// writing on that connection; a failed write is reported by the Call.
//
// If req.ValuePool is set, ownership of the value lease transfers to
// the rpc layer the moment SendTimeout is called: the buffer is
// released after the frame is written — or on any failure path — and
// the caller must not touch req.Value afterwards, success or not.
func (p *Pool) SendTimeout(addr string, req *wire.Request, timeout time.Duration) (*Call, error) {
	if req.Epoch == 0 {
		if src := p.epochSource.Load(); src != nil {
			req.Epoch = (*src)()
		}
	}
	h := p.healthFor(addr)
	if h != nil && !h.admit(time.Now(), p.probeBase, p.probeMax) {
		p.mFailFast.Inc()
		req.ReleaseValue()
		return nil, fmt.Errorf("%w: %s: suspect, awaiting probe", ErrServerDown, addr)
	}
	mc, err := p.conn(addr)
	if err != nil {
		p.mSendErrors.Inc()
		p.observe(addr, err)
		req.ReleaseValue()
		return nil, err
	}
	start := time.Now()
	call, err := mc.send(req, timeout, func(callErr error) {
		p.hCallSeconds.Record(time.Since(start))
		switch {
		case callErr == nil:
			p.mOK.Inc()
		case errors.Is(callErr, ErrTimeout):
			p.mTimeouts.Inc()
		default:
			p.mCallErrors.Inc()
		}
		p.observe(addr, callErr)
	})
	if err != nil {
		p.mSendErrors.Inc()
		p.drop(addr, mc)
		p.observe(addr, err)
		return nil, fmt.Errorf("%w: %s: %v", ErrServerDown, addr, err)
	}
	p.mCalls.Inc()
	return call, nil
}

// Roundtrip is Send followed by Wait, with server status mapped to an
// error via Response.Err; the response is returned even on status
// errors so callers can inspect metadata.
func (p *Pool) Roundtrip(addr string, req *wire.Request) (*wire.Response, error) {
	return p.RoundtripTimeout(addr, req, p.timeout)
}

// RoundtripTimeout is Roundtrip with an explicit per-call deadline.
func (p *Pool) RoundtripTimeout(addr string, req *wire.Request, timeout time.Duration) (*wire.Response, error) {
	call, err := p.SendTimeout(addr, req, timeout)
	if err != nil {
		return nil, err
	}
	resp, err := call.Wait()
	if err != nil {
		return nil, err
	}
	return resp, resp.Err()
}

// SetRecoveryHook registers fn to be called whenever a server leaves
// the suspect state (a probe of a previously failing server succeeded).
// The anti-entropy scrubber uses it to kick a repair cycle the moment a
// crashed-and-restarted server rejoins, instead of waiting out the
// periodic interval. fn runs on the call-completion path and must not
// block; hand off to a channel or goroutine for real work. A nil fn
// clears the hook.
func (p *Pool) SetRecoveryHook(fn func(addr string)) {
	p.mu.Lock()
	p.onRecovery = fn
	p.mu.Unlock()
}

// Suspect reports whether addr is currently in the suspect state.
// Placement and failover code uses it to deprioritize known-bad
// servers without issuing a request.
func (p *Pool) Suspect(addr string) bool {
	p.mu.Lock()
	h := p.health[addr]
	p.mu.Unlock()
	return h != nil && h.snapshot() == StateSuspect
}

// healthFor returns addr's health tracker, creating it on first use.
// It returns nil only after Close.
func (p *Pool) healthFor(addr string) *health {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	h, ok := p.health[addr]
	if !ok {
		h = &health{}
		p.health[addr] = h
	}
	return h
}

// observe feeds one call outcome to addr's health tracker. Pool
// shutdown is not a server failure.
func (p *Pool) observe(addr string, err error) {
	if err != nil && errors.Is(err, transport.ErrClosed) {
		return
	}
	h := p.healthFor(addr)
	if h == nil {
		return
	}
	toSuspect, recovered := h.observe(err, p.failThreshold, p.probeBase)
	if recovered {
		p.mRecoveries.Inc()
		p.gSuspect.Add(-1)
		p.mu.Lock()
		hook := p.onRecovery
		p.mu.Unlock()
		if hook != nil {
			hook(addr)
		}
	}
	if toSuspect {
		p.mToSuspect.Inc()
		p.gSuspect.Add(1)
		// Freshly suspect: drop the cached connection (it may be hung)
		// so the next probe redials from scratch.
		p.mu.Lock()
		mc := p.conns[addr]
		delete(p.conns, addr)
		p.mu.Unlock()
		if mc != nil {
			mc.close(fmt.Errorf("%w: %s: suspect", ErrServerDown, addr))
		}
	}
}

func (p *Pool) conn(addr string) (*muxConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, transport.ErrClosed
	}
	if mc, ok := p.conns[addr]; ok && !mc.broken() {
		return mc, nil
	}
	p.mDials.Inc()
	raw, err := p.network.Dial(addr)
	if err != nil {
		p.mDialErrors.Inc()
		return nil, fmt.Errorf("%w: %s: %v", ErrServerDown, addr, err)
	}
	mc := newMuxConn(raw, p.framePool)
	p.conns[addr] = mc
	return mc, nil
}

// drop removes mc from the pool if it is still the registered
// connection for addr.
func (p *Pool) drop(addr string, mc *muxConn) {
	p.mu.Lock()
	if p.conns[addr] == mc {
		delete(p.conns, addr)
	}
	p.mu.Unlock()
	mc.close(ErrServerDown)
}

// Close shuts every connection; in-flight calls fail.
func (p *Pool) Close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = make(map[string]*muxConn)
	p.health = make(map[string]*health)
	p.closed = true
	p.mu.Unlock()
	for _, mc := range conns {
		mc.close(transport.ErrClosed)
	}
}

// muxConn multiplexes calls over one transport connection. Outbound
// frames are encoded outside any lock and handed to a per-connection
// FrameQueue: a lone sender writes its frame itself, on its own
// goroutine; senders that overlap ride the current flusher's next
// vectored write — a full ARPE-style window of in-flight chunk
// operations costs a handful of syscalls, not one flush per frame. The
// only goroutine a connection owns is its reader.
type muxConn struct {
	conn transport.Conn
	fq   *wire.FrameQueue
	pool *bufpool.Pool

	mu      sync.Mutex
	pending map[uint64]*Call
	nextID  uint64
	dead    bool
	deadErr error
}

// sendQueueDepth bounds the number of encoded-but-unwritten frames per
// connection; Enqueue blocks (backpressure) beyond it. Sized to hold a
// few full RS stripes' worth of chunk writes.
const sendQueueDepth = 256

func newMuxConn(conn transport.Conn, pool *bufpool.Pool) *muxConn {
	mc := &muxConn{
		conn:    conn,
		pool:    pool,
		pending: make(map[uint64]*Call),
	}
	// No onError: send is the queue's only user, and the call whose
	// flush fails gets the error back and closes the connection itself.
	mc.fq = wire.NewFrameQueue(conn, sendQueueDepth, pool, nil)
	go mc.readLoop()
	return mc
}

func (mc *muxConn) broken() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.dead
}

func (mc *muxConn) send(req *wire.Request, timeout time.Duration, onDone func(error)) (*Call, error) {
	call := newCall()
	call.onDone = onDone
	mc.mu.Lock()
	if mc.dead {
		err := mc.deadErr
		mc.mu.Unlock()
		req.ReleaseValue()
		return nil, err
	}
	mc.nextID++
	id := mc.nextID
	req.ID = id
	mc.pending[id] = call
	mc.mu.Unlock()

	// Encode outside every lock so one big value can't stall unrelated
	// calls; the frame either reaches the queue (which then owns it and
	// any transferred value lease) or is released by the failing step.
	frame, err := wire.EncodeRequestFrame(mc.pool, req)
	if err != nil {
		// An oversized request is the caller's problem, not the link's.
		mc.forget(id)
		return nil, err
	}
	// Armed before the frame is queued: Enqueue may write on this
	// goroutine, or wait for room behind a write that is stuck, and the
	// caller's deadline covers that too.
	if timeout > 0 {
		call.arm(timeout, func() { mc.expire(id, call, timeout) })
	}
	if err := mc.fq.Enqueue(frame); err != nil {
		// A write-path error kills the connection and with it every call
		// pending on it, this one included. Wrapped, so that they all
		// fail over (IsUnavailable); the caller reads it from Wait.
		mc.close(fmt.Errorf("%w: %v", ErrServerDown, err))
		return call, nil
	}
	call.sent.Store(true)
	return call, nil
}

// forget drops id's pending entry, so a response arriving later cannot
// complete a call that is already decided.
func (mc *muxConn) forget(id uint64) {
	mc.mu.Lock()
	delete(mc.pending, id)
	mc.mu.Unlock()
}

// expire is the deadline of call id. A deadline that fires while the
// request is still unsent means a write has outlived it: the link is
// dead, and closing it is what lets the blocked Write (and everyone
// queued behind it) return.
func (mc *muxConn) expire(id uint64, call *Call, timeout time.Duration) {
	mc.forget(id)
	err := fmt.Errorf("%w after %v", ErrTimeout, timeout)
	if call.complete(nil, err) && !call.sent.Load() {
		mc.close(fmt.Errorf("%w: send stalled: %v", ErrServerDown, err))
	}
}

func (mc *muxConn) readLoop() {
	br := bufio.NewReaderSize(mc.conn, 64<<10)
	for {
		resp, err := wire.ReadResponsePooled(br, mc.pool)
		if err != nil {
			mc.close(fmt.Errorf("%w: %v", ErrServerDown, err))
			return
		}
		mc.mu.Lock()
		call, ok := mc.pending[resp.ID]
		delete(mc.pending, resp.ID)
		mc.mu.Unlock()
		// A response nobody is waiting for (late arrival after a
		// deadline, or a lost race with the timer inside complete) must
		// return its leased frame body itself.
		if !ok || !call.complete(resp, nil) {
			resp.Release()
		}
	}
}

// close marks the connection dead and fails all pending calls.
func (mc *muxConn) close(err error) {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead = true
	mc.deadErr = err
	pending := mc.pending
	mc.pending = make(map[uint64]*Call)
	mc.mu.Unlock()
	// Closing the conn unblocks any in-flight batch write; the queue
	// then drains, releasing every still-owned frame buffer.
	_ = mc.conn.Close()
	_ = mc.fq.Close()
	for _, call := range pending {
		call.complete(nil, err)
	}
}
