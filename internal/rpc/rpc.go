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
// Calls are issued in rounds: the calls one caller sends together and
// waits for together. The caller owns the memory — a Round and one Call
// slot per request, typically fields of the operation's own ledger — so
// a call allocates nothing, a round has one deadline, and its waiter
// parks once, woken by the last completion.
//
// The pool is also the failure detector: every round can carry a
// deadline (its unanswered calls complete with ErrTimeout when it
// passes), and one record per server turns consecutive failures into a
// "down" state in which requests fail fast and only periodic probes —
// spaced with exponential backoff and jitter — are let through to
// detect recovery. Callers therefore never block indefinitely on a hung
// server and never pay a fresh dial per request to a known-dead one.
// The same record keeps the run of chunk misses its readers report, and
// Avoided lists the servers either run says to go around.
package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/erasure"
	"ecstore/internal/metrics"
	"ecstore/internal/stats"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// ErrServerDown is returned when the remote cannot be dialed, the
// connection fails mid-call, or the server is down and not due for a
// probe. Callers treat it as a node failure and fall back to
// replicas or parity chunks.
var ErrServerDown = errors.New("rpc: server down")

// ErrTimeout is returned when a call's deadline expires before the
// response arrives. The server may still be processing the request;
// only idempotent operations are safe to retry.
var ErrTimeout = errors.New("rpc: call timed out")

// IsUnavailable reports whether err means the server did not usefully
// answer — unreachable, down, or past its deadline — and a replica, parity
// chunk, or (for idempotent operations) a retry should be used instead.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrServerDown) || errors.Is(err, ErrTimeout)
}

// Call states. A slot is used for one call only (see Call), so the
// state never goes back.
const (
	callIdle    uint32 = iota // not issued yet
	callPending               // issued, waiting for its completion
	callClaimed               // a completion won and is filling the slot
	callDone                  // resp/err are final
)

// Call is the slot of one request: the caller provides it, Round.Issue
// fills it in, and after Round.Wait it holds the outcome (Result). It
// lives wherever the caller keeps it — an array beside the round, a
// slab of slots the caller hands out one by one — so issuing a call
// allocates nothing.
//
// A slot serves ONE call, ever. The connection's reader and the round's
// deadline each take a slot pointer under the connection lock and use it
// after dropping that lock, so a late completion can land on a slot whose
// round is long over. On a slot nobody reuses that is harmless (the
// completion loses and releases its response); on a recycled slot it
// would hand one call's answer to another. Callers therefore take a
// fresh slot for every call — the holder of a slab may keep it across
// rounds and operations, handing each slot out once — and let used
// slots go to the garbage collector with whatever holds them.
type Call struct {
	state atomic.Uint32
	resp  wire.Response
	err   error

	// Set by Issue before the call can complete, never changed after.
	round *Round
	next  *Call // the round's list of issued calls
	pool  *Pool
	mc    *muxConn
	id    uint64
	addr  string    // for the server's record
	start time.Time // for the call-latency histogram

	// sent is set once the call's frame has been written or handed to
	// the connection's flusher; a deadline that fires before that found
	// the caller still blocked on the send side.
	sent atomic.Bool
}

// Ready reports whether the call has completed, without blocking.
func (c *Call) Ready() bool { return c.state.Load() == callDone }

// Result returns the call's outcome. It is valid once the call's round
// has been waited out (or Ready reports true): the response, which
// lives in the slot, or the error that prevented one — a refused or
// failed send, a dead connection, the round's deadline. The response's
// Value may alias a pooled frame buffer: call Response.Release once done
// with it (copy the value first if it outlives the call), or let the
// garbage collector have it at the cost of a pool miss.
func (c *Call) Result() (*wire.Response, error) {
	if c.err != nil {
		return nil, c.err
	}
	return &c.resp, nil
}

// refuse settles a call that never joined its round: the send was not
// attempted (down server, dial failure).
func (c *Call) refuse(err error) {
	c.err = err
	c.state.Store(callDone)
}

// settle finishes the call exactly once; a late completion (a response
// racing the deadline, or vice versa) is dropped. It reports whether
// this completion was the one delivered — a false return means resp was
// NOT handed to the caller, so a pooled response must be released by
// whoever called settle. The round's waiter is released before settle
// returns.
func (c *Call) settle(resp *wire.Response, err error) bool {
	if !c.state.CompareAndSwap(callPending, callClaimed) {
		return false
	}
	c.deliver(resp, err)
	return true
}

// deliver fills a claimed slot with the outcome and releases the
// round's waiter.
func (c *Call) deliver(resp *wire.Response, err error) {
	if resp != nil {
		c.resp = *resp // the lease moves into the slot with it
	}
	c.err = err
	c.state.Store(callDone)
	c.round.wg.Done()
}

// complete is settle for a call that reached the wire (or its
// connection's pending table). The outcome also feeds the server's
// record, before the waiter is released: the caller's next call is
// admitted by the state this one leaves, so a probe that found the
// server back must have closed the circuit by then. The counters and
// the latency histogram follow the release.
func (c *Call) complete(resp *wire.Response, err error) bool {
	if !c.state.CompareAndSwap(callPending, callClaimed) {
		return false
	}
	p, now := c.pool, time.Now()
	p.observe(c.addr, now, c.start, err)
	c.deliver(resp, err)
	p.hCallSeconds.Record(now.Sub(c.start))
	switch {
	case err == nil:
		p.mOK.Inc()
	case errors.Is(err, ErrTimeout):
		p.mTimeouts.Inc()
	default:
		p.mCallErrors.Inc()
	}
	return true
}

// sendFailed settles a call that joined its round but could not be put
// on the wire (dead connection, unencodable request): the connection is
// dropped and the failure counts against the server.
func (c *Call) sendFailed(err error) {
	p := c.pool
	p.mSendErrors.Inc()
	p.drop(c.addr, c.mc)
	p.observe(c.addr, time.Now(), c.start, err)
	c.settle(nil, fmt.Errorf("%w: %s: %v", ErrServerDown, c.addr, err))
}

// expire is the round's deadline reaching a call that is still pending.
// A deadline that fires while the request is still unsent means a write
// has outlived it: the link is dead, and closing it is what lets the
// blocked Write (and everyone queued behind it) return.
func (c *Call) expire(timeout time.Duration) {
	if c.Ready() {
		return
	}
	c.mc.forget(c.id)
	err := fmt.Errorf("%w after %v", ErrTimeout, timeout)
	if c.complete(nil, err) && !c.sent.Load() {
		c.mc.close(fmt.Errorf("%w: send stalled: %v", ErrServerDown, err))
	}
}

// Round is a set of calls issued together and waited for together:
// Begin (or BeginTimeout) on a pool, Issue any number of calls, Wait.
// The round has ONE deadline, running from Begin — a call issued late in
// a long round gets what is left of it, not a fresh one — and ONE
// wake-up: every completion counts the round down and the last one
// releases Wait, so the waiter parks once however many calls it sent.
// A blocking call is a round of one. After Wait a Round may begin again
// (with fresh slots) — on any goroutine, under any deadline, so callers
// may pool rounds and the timer each keeps; the zero value is ready for
// its first Begin. A Round must not be copied once used.
type Round struct {
	pool *Pool
	wg   sync.WaitGroup // calls issued and not yet settled

	mu       sync.Mutex
	open     bool  // between Begin and the end of Wait
	expired  bool  // the deadline fired during this round
	head     *Call // calls issued this round, newest first
	timeout  time.Duration
	deadline time.Time
	timer    *time.Timer // created by the first deadline, re-armed after
}

// Begin opens r as a round of calls on p under the pool's default
// deadline (WithCallTimeout).
func (p *Pool) Begin(r *Round) { p.BeginTimeout(r, p.timeout) }

// BeginTimeout is Begin with an explicit deadline for the round
// (0 = none), counted from now.
func (p *Pool) BeginTimeout(r *Round, timeout time.Duration) {
	r.mu.Lock()
	r.pool, r.open, r.expired, r.head, r.timeout = p, true, false, nil, timeout
	if timeout > 0 {
		r.deadline = time.Now().Add(timeout)
	}
	r.mu.Unlock()
}

// watch puts c under the round's deadline, arming it with the round's
// first call — before that call's frame is queued, so a write that
// sticks is covered too. It reports false when the deadline has already
// fired: the call is out of time before it was sent.
func (r *Round) watch(c *Call) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.expired {
		return false
	}
	c.next, r.head = r.head, c
	if c.next == nil && r.timeout > 0 {
		if d := time.Until(r.deadline); r.timer == nil {
			r.timer = time.AfterFunc(d, r.fire)
		} else {
			r.timer.Reset(d)
		}
	}
	return true
}

// fire is the deadline: every call of the round still pending expires.
// The timer is re-armed round after round — by whichever caller begins
// the Round next — and stopping it does not wait for a firing already on
// its way, so a firing that finds no round open, or one whose deadline
// is still ahead, is a leftover of an earlier round and does nothing.
func (r *Round) fire() {
	r.mu.Lock()
	if !r.open || r.timeout <= 0 || time.Now().Before(r.deadline) {
		r.mu.Unlock()
		return
	}
	r.expired = true // calls issued from here on are refused by watch
	c, timeout := r.head, r.timeout
	r.mu.Unlock()
	// The list is only ever pushed at its head, and a slot's link is
	// never rewritten (slots are not reused), so it is walked unlocked.
	for ; c != nil; c = c.next {
		c.expire(timeout)
	}
}

// Wait blocks until every call issued in the round has completed — by
// its response, its connection's failure or the round's deadline — then
// disarms the deadline. The calls' Results are final from here on.
func (r *Round) Wait() {
	r.wg.Wait()
	r.mu.Lock()
	r.open, r.head = false, nil
	if r.timer != nil {
		r.timer.Stop()
	}
	r.mu.Unlock()
}

// Option configures a Pool.
type Option func(*Pool)

// WithCallTimeout sets the default deadline of a round (Begin,
// Roundtrip); 0 (the initial default) disables deadlines. BeginTimeout
// overrides it per round.
func WithCallTimeout(d time.Duration) Option {
	return func(p *Pool) { p.timeout = d }
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
// the down fast-fail, dials and dial failures, down and recovery
// transitions, the number of servers down and of servers avoided, and a
// call-latency histogram (README lists every series). A nil registry
// (the default) discards all of it.
func WithMetrics(reg *metrics.Registry) Option {
	return func(p *Pool) { p.reg = reg }
}

// Pool manages one multiplexed connection per remote address. It is
// safe for concurrent use.
type Pool struct {
	network   transport.Network
	timeout   time.Duration
	pol       policy
	reg       *metrics.Registry
	framePool *bufpool.Pool

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
	mToDown      *metrics.Counter
	mRecoveries  *metrics.Counter
	gDown        *metrics.Gauge
	gAvoided     *metrics.Gauge
	hCallSeconds *stats.Histogram

	// avoiding counts the flagged records (down, or at the miss
	// threshold), missRuns those with a run of chunk misses. On a healthy
	// cluster both stay 0, and Avoided and ObserveChunks load one and go
	// no further.
	avoiding, missRuns atomic.Int32

	mu         sync.Mutex
	conns      map[string]*muxConn
	records    map[string]*record
	onRecovery func(addr string)
	closed     bool
}

// NewPool returns a Pool dialing through network.
func NewPool(network transport.Network, opts ...Option) *Pool {
	p := &Pool{
		network:   network,
		conns:     make(map[string]*muxConn),
		records:   make(map[string]*record),
		pol:       policy{DefaultFailureThreshold, DefaultProbeBase, DefaultProbeMax},
		framePool: bufpool.Default,
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
	p.mToDown = p.reg.Counter("ecstore_rpc_suspect_transitions_total")
	p.mRecoveries = p.reg.Counter("ecstore_rpc_recoveries_total")
	p.gDown = p.reg.Gauge("ecstore_rpc_suspect_servers")
	p.gAvoided = p.reg.Gauge("ecstore_rpc_avoided_servers")
	p.hCallSeconds = p.reg.Histogram("ecstore_rpc_call_seconds")
	return p
}

// FramePool returns the buffer pool this pool leases frames from (nil
// when pooling is disabled). Callers building pooled request values —
// e.g. chunk payloads handed over via Request.ValuePool — should lease
// from it so buffers recycle within one pool.
func (p *Pool) FramePool() *bufpool.Pool { return p.framePool }

// Issue sends req to addr as one call of the round, using slot c (which
// must be fresh: see Call). It never fails as such: whatever goes wrong —
// a down server that is not due for a probe (no dial is attempted), a
// refused dial, a dead connection, a failed write — is the call's
// Result, an error wrapping ErrServerDown, which the caller reads with
// every other outcome after Wait; the return value only says whether
// the request was handed to a connection (false: refused or failed
// before a byte was queued), for callers that count frames. Dial
// happens lazily; a broken connection is dropped so the next Issue
// redials. The request is written before Issue returns unless another
// sender is already writing on that connection.
//
// If req.ValuePool is set, ownership of the value lease transfers to
// the rpc layer the moment Issue is called: the buffer is released after
// the frame is written — or on any failure path — and the caller must
// not touch req.Value afterwards, success or not.
func (r *Round) Issue(c *Call, addr string, req *wire.Request) bool {
	p := r.pool
	p.mu.Lock() // a closed pool admits, and its dial refuses
	admitted := p.closed || p.recordOf(addr).admit(time.Now(), p.pol)
	p.mu.Unlock()
	if !admitted {
		p.mFailFast.Inc()
		req.ReleaseValue()
		c.refuse(fmt.Errorf("%w: %s: down, awaiting probe", ErrServerDown, addr))
		return false
	}
	mc, err := p.conn(addr)
	if err != nil {
		p.mSendErrors.Inc()
		now := time.Now()
		p.observe(addr, now, now, err)
		req.ReleaseValue()
		c.refuse(err)
		return false
	}
	c.round, c.pool, c.mc, c.addr, c.start = r, p, mc, addr, time.Now()
	c.state.Store(callPending)
	r.wg.Add(1) // before anything can settle the call
	if err := mc.register(c, req); err != nil {
		req.ReleaseValue()
		c.sendFailed(err)
		return false
	}
	if !r.watch(c) {
		mc.forget(c.id)
		req.ReleaseValue()
		c.settle(nil, fmt.Errorf("%w: round deadline passed before the send", ErrTimeout))
		return false
	}
	// Encode outside every lock so one big value can't stall unrelated
	// calls; the frame either reaches the queue (which then owns it and
	// any transferred value lease) or is released by the failing step.
	frame, err := wire.EncodeRequestFrame(mc.pool, req)
	if err != nil {
		mc.forget(c.id)
		c.sendFailed(err)
		return false
	}
	p.mCalls.Inc()
	// The round's deadline is armed by now: Enqueue may write on this
	// goroutine, or wait for room behind a write that is stuck, and the
	// deadline covers that too.
	if err := mc.fq.Enqueue(frame); err != nil {
		// A write-path error kills the connection and with it every call
		// pending on it, this one included. Wrapped, so that they all
		// fail over (IsUnavailable).
		mc.close(fmt.Errorf("%w: %v", ErrServerDown, err))
		return true
	}
	c.sent.Store(true)
	return true
}

// Roundtrip is a round of one under the pool's default deadline: issue,
// wait, with server status mapped to an error via Response.Err; the
// response is returned even on status errors so callers can inspect
// metadata.
func (p *Pool) Roundtrip(addr string, req *wire.Request) (*wire.Response, error) {
	// The round and its slot share one allocation, which the returned
	// response (it lives in the slot) keeps alive.
	one := new(struct {
		round Round
		call  Call
	})
	p.Begin(&one.round)
	one.round.Issue(&one.call, addr, req)
	one.round.Wait()
	resp, err := one.call.Result()
	if err != nil {
		return nil, err
	}
	return resp, resp.Err()
}

// SetRecoveryHook registers fn to be called whenever a down server
// comes back (a probe of a server that kept failing succeeded). The
// background daemon (internal/scrub) uses it to kick a repair pass the
// moment a crashed-and-restarted server rejoins, instead of waiting out
// the periodic interval. fn runs on the call-completion path and must not
// block; hand off to a channel or goroutine for real work. A nil fn
// clears the hook.
func (p *Pool) SetRecoveryHook(fn func(addr string)) {
	p.mu.Lock()
	p.onRecovery = fn
	p.mu.Unlock()
}

// Avoided appends to dst the servers a caller should ask last now: those
// down, and those inside a window of chunk misses. now is read only when some server is flagged; with none,
// Avoided loads one atomic and returns dst.
func (p *Pool) Avoided(dst []string, now func() time.Time) []string {
	if p.avoiding.Load() == 0 {
		return dst
	}
	t := now()
	p.mu.Lock()
	for addr, r := range p.records {
		if r.avoided(t, p.pol) {
			dst = append(dst, addr)
		}
	}
	p.mu.Unlock()
	return dst
}

// ObserveChunks records what one decoded read learned of the holders in
// placement: the positions in hits returned a chunk of the winning
// stripe, those in misses none at all (not-found, refused, unreachable,
// timed out, corrupt). now is read only when there are misses. A read
// with no misses while no server has a miss run loads one atomic and
// returns.
func (p *Pool) ObserveChunks(placement []string, hits, misses erasure.ShardSet, now func() time.Time) {
	var t time.Time
	switch {
	case misses != (erasure.ShardSet{}):
		t = now()
	case p.missRuns.Load() == 0:
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	for j, addr := range placement {
		switch r := p.records[addr]; {
		case hits.Has(j) && r != nil && r.misses > 0:
			was := *r
			r.hit()
			p.recount(&was, r)
		case misses.Has(j):
			r = p.recordOf(addr)
			was := *r
			r.miss(t, p.pol)
			p.recount(&was, r)
		}
	}
}

// recordOf returns addr's record, creating it on first use. The caller
// holds p.mu.
func (p *Pool) recordOf(addr string) *record {
	r, ok := p.records[addr]
	if !ok {
		r = &record{}
		p.records[addr] = r
	}
	return r
}

// recount moves the pool's counts and gauges from what a record was to
// what it is.
func (p *Pool) recount(was, is *record) {
	if d := one(is.down) - one(was.down); d != 0 {
		p.gDown.Add(int64(d))
	}
	if d := one(is.flagged(p.pol)) - one(was.flagged(p.pol)); d != 0 {
		p.avoiding.Add(d)
		p.gAvoided.Add(int64(d))
	}
	if d := one(is.misses > 0) - one(was.misses > 0); d != 0 {
		p.missRuns.Add(d)
	}
}

// one counts a true flag.
func one(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// observe feeds the outcome of one call to addr, started at start and
// ended at now, to addr's record. Pool shutdown is not a server failure.
func (p *Pool) observe(addr string, now, start time.Time, err error) {
	if err != nil && errors.Is(err, transport.ErrClosed) {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	r := p.recordOf(addr)
	was := *r
	toDown, recovered := r.observe(now, start, err, p.pol)
	p.recount(&was, r)
	hook := p.onRecovery
	var mc *muxConn
	if toDown {
		// Freshly down: drop the cached connection (it may be hung) so
		// the next probe redials from scratch.
		mc = p.conns[addr]
		delete(p.conns, addr)
	}
	p.mu.Unlock()
	if recovered {
		p.mRecoveries.Inc()
		if hook != nil {
			hook(addr)
		}
	}
	if toDown {
		p.mToDown.Inc()
		if mc != nil {
			mc.close(fmt.Errorf("%w: %s: down", ErrServerDown, addr))
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

// Close shuts every connection; in-flight calls fail. The records go,
// and with them their share of the gauges.
func (p *Pool) Close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = make(map[string]*muxConn)
	for _, r := range p.records {
		p.recount(r, &record{})
	}
	p.records = make(map[string]*record)
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

// register enters c in the pending table under a fresh request ID,
// which it stamps on req. It fails on a connection already torn down.
func (mc *muxConn) register(c *Call, req *wire.Request) error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.dead {
		return mc.deadErr
	}
	mc.nextID++
	c.id, req.ID = mc.nextID, mc.nextID
	mc.pending[c.id] = c
	return nil
}

// forget drops id's pending entry, so a response arriving later cannot
// complete a call that is already decided.
func (mc *muxConn) forget(id uint64) {
	mc.mu.Lock()
	delete(mc.pending, id)
	mc.mu.Unlock()
}

func (mc *muxConn) readLoop() {
	br := bufio.NewReaderSize(mc.conn, 64<<10)
	// Every frame is parsed into this one response, which complete
	// copies — lease and all — into the slot of the call it answers.
	var resp wire.Response
	for {
		if err := resp.ReadPooled(br, mc.pool); err != nil {
			mc.close(fmt.Errorf("%w: %v", ErrServerDown, err))
			return
		}
		mc.mu.Lock()
		call, ok := mc.pending[resp.ID]
		delete(mc.pending, resp.ID)
		mc.mu.Unlock()
		// A response nobody is waiting for (late arrival after a
		// deadline, or a lost race with the deadline inside complete)
		// must return its leased frame body itself.
		if !ok || !call.complete(&resp, nil) {
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
