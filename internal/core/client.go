package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"ecstore/internal/hashring"
	"ecstore/internal/membership"
	"ecstore/internal/metrics"
	"ecstore/internal/nearcache"
	"ecstore/internal/rpc"
	"ecstore/internal/stats"
	"ecstore/internal/store"
	"ecstore/internal/wire"
)

// Client errors.
var (
	// ErrNotFound is returned by Get when the key does not exist (or
	// too few chunks survive to reconstruct it).
	ErrNotFound = wire.ErrNotFound
	// ErrUnavailable is returned when too many servers are down to
	// complete the operation.
	ErrUnavailable = errors.New("core: not enough servers available")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("core: client is closed")
	// ErrCASConflict is returned by Cas when the stored version no
	// longer matches the token (someone wrote in between), and by Add
	// when the key already exists.
	ErrCASConflict = errors.New("core: cas conflict")
)

// Client is the resilient key-value store client. It is safe for
// concurrent use by multiple goroutines.
type Client struct {
	cfg   Config
	pool  *rpc.Pool
	view  *membership.Tracker
	strat strategy

	// window is the ARPE send/receive window: a semaphore bounding
	// in-flight non-blocking operations. Its capacity is the
	// documented tunable; this is the one channel whose size encodes
	// protocol behaviour rather than buffering convenience.
	window chan struct{}

	// cache is the hot-key read-scaling layer of DESIGN §11: it
	// coalesces concurrent reads of one key into a single strategy fetch
	// and, when Config.CacheBytes > 0, keeps version-stamped logical
	// values. Every local Set/Cas/Delete invalidates its key whatever the
	// outcome: on success the cached value is stale by construction, on
	// failure the key's state is unknown.
	cache *nearcache.Cache

	// batchers recycles the operations' executors, each with the rpc
	// round its calls run in (and the deadline timer the round armed) and
	// its slab of call slots: begin draws one and end gives it back
	// (DESIGN §5b says why a round may pass from one operation to the
	// next, and why a slot may not). Per client, not global, so that no
	// timer is shared beyond the client that made it.
	batchers sync.Pool

	// Metric handles resolved once at construction; the strategies
	// record through these on every operation.
	ops            map[string]*opMetrics
	mRetries       *metrics.Counter
	mDegraded      *metrics.Counter
	mSkipped       *metrics.Counter
	mRebuilt       *metrics.Counter
	mUnwinds       *metrics.Counter
	mFailovers     *metrics.Counter
	mReconstructs  *metrics.Counter
	mScans         *metrics.Counter
	mScanUnreached *metrics.Counter
	mCoalesced     *metrics.Counter
	mEpochRetries  *metrics.Counter

	// Bulk metric handles, fed by the M* calls only: the wire frames and
	// sub-operations those calls issue — their ratio is the amortization
	// the batching buys.
	mBulkFrames *metrics.Counter
	mBulkSubops *metrics.Counter

	// sleep stands in for time.Sleep in the retry backoff (tests only;
	// the real one when nil). now is time.Now in what reads tell the pool
	// of its servers, unless a test set another clock (SetClock).
	sleep func(time.Duration)
	now   func() time.Time

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// opMetrics bundles the per-operation metric handles: totals, errors,
// end-to-end latency, and the three per-phase latency series of the
// paper's Figure 9 breakdown.
type opMetrics struct {
	total   *metrics.Counter
	errs    *metrics.Counter
	seconds *stats.Histogram
	phases  map[string]*stats.Histogram
}

// Phase names recorded by the strategies. They match the labels the
// benchmarks have always used for the Figure 9 breakdown.
const (
	phaseRequest = "request"
	phaseWait    = "wait-response"
	phaseCode    = "encode-decode"
)

// done counts one finished operation: total and error counters and the
// end-to-end latency since start.
func (om *opMetrics) done(start time.Time, err error) {
	om.seconds.Record(time.Since(start))
	om.total.Inc()
	if err != nil {
		om.errs.Inc()
	}
}

func newOpMetrics(reg *metrics.Registry, op string) *opMetrics {
	phases := make(map[string]*stats.Histogram, 3)
	for _, ph := range []string{phaseRequest, phaseWait, phaseCode} {
		phases[ph] = reg.Histogram(fmt.Sprintf("ecstore_client_phase_seconds{op=%q,phase=%q}", op, ph))
	}
	return &opMetrics{
		total:   reg.Counter(fmt.Sprintf("ecstore_client_ops_total{op=%q}", op)),
		errs:    reg.Counter(fmt.Sprintf("ecstore_client_op_errors_total{op=%q}", op)),
		seconds: reg.Histogram(fmt.Sprintf("ecstore_client_op_seconds{op=%q}", op)),
		phases:  phases,
	}
}

// write is one key's write within a strategy set call.
type write struct {
	key   string
	value []byte
	ttl   time.Duration
	// cas makes the write conditional on the stored version being
	// expect, wire.CompareAbsent (0) for an add: Cas and Add set it.
	cas    bool
	expect uint64
}

// strategy executes whole operations under a resilience scheme, and
// the key-slice form is the only form: a single-key Get/Set/Delete/Repair
// is a call with one key, MGet/MSet/MDelete/RepairEach a call with many,
// through the
// same failover walk, absence classification, torn-write discipline and
// unwind. Every wire round goes through the operation's batcher, one
// frame per target server. Results come back by key position; key
// slices are duplicate-free (the public layer dedupes). get retries
// transient failures and epoch rejections itself; set and del are not
// idempotent and leave the epoch retry to the caller (retryKeys). An
// ErrNotFound result is authoritative absence — the public APIs decide
// whether that is an error for their call. del's expect, when non-zero,
// makes every delete of its round conditional on that version (DeleteCas).
// converge is the background half (converge.go): it brings every key to
// full redundancy at the current placement, from that placement and
// every draining ring's, writing only against what its own probe saw,
// and answers each key's report into reports by position. compareSet
// alone is single-key, by nature (one decider or one stripe per key),
// and returns the version installed, the CAS token later reads report.
type strategy interface {
	get(b *batcher, keys []string) []result
	set(b *batcher, writes []write) []result
	del(b *batcher, keys []string, expect uint64) []result
	converge(b *batcher, keys []string, reports []RepairReport) []result
	compareSet(b *batcher, key string, value []byte, ttl time.Duration, expect uint64) (uint64, error)
}

// New returns a Client for the given configuration.
func New(cfg Config) (*Client, error) {
	if cfg.Network == nil {
		return nil, errors.New("core: Config.Network is required")
	}
	if len(cfg.Servers) == 0 {
		return nil, errors.New("core: Config.Servers is empty")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Replicas > len(cfg.Servers) {
		return nil, fmt.Errorf("core: %d replicas need at least that many servers (have %d)",
			cfg.Replicas, len(cfg.Servers))
	}
	// The pool is the failure detector: per-call deadlines bound every
	// round trip, and each server's record turns repeated failures into
	// a fast-failing down state — see Config.OpTimeout
	// and Config.MaxRetries. It shares the client's metrics registry, so
	// rpc call/timeout/health counters land next to the per-op series.
	pool := rpc.NewPool(cfg.Network, rpc.WithCallTimeout(cfg.OpTimeout), rpc.WithMetrics(cfg.Metrics))
	return newClient(cfg, pool, membership.NewTracker(membership.NewView(cfg.Servers)))
}

// newClient builds a client, and the strategy cfg selects, over pool
// and view. It is the one constructor: New passes a pool and view of
// the client's own, NewCoordinator a server's.
func newClient(cfg Config, pool *rpc.Pool, view *membership.Tracker) (*Client, error) {
	reg := cfg.Metrics
	c := &Client{
		cfg:    cfg,
		pool:   pool,
		view:   view,
		window: make(chan struct{}, cfg.Window),
		now:    time.Now,
		ops: map[string]*opMetrics{
			"set":     newOpMetrics(reg, "set"),
			"get":     newOpMetrics(reg, "get"),
			"delete":  newOpMetrics(reg, "delete"),
			"cas":     newOpMetrics(reg, "cas"),
			"mget":    newOpMetrics(reg, "mget"),
			"mset":    newOpMetrics(reg, "mset"),
			"mdelete": newOpMetrics(reg, "mdelete"),
			"repair":  newOpMetrics(reg, "repair"),
			"admin":   newOpMetrics(reg, "admin"),
		},
		mRetries:       reg.Counter("ecstore_client_retries_total"),
		mDegraded:      reg.Counter("ecstore_client_degraded_reads_total"),
		mSkipped:       reg.Counter("ecstore_client_skipped_holder_reads_total"),
		mRebuilt:       reg.Counter("ecstore_client_chunks_rebuilt_total"),
		mUnwinds:       reg.Counter("ecstore_client_stripe_unwinds_total"),
		mFailovers:     reg.Counter("ecstore_client_failovers_total"),
		mReconstructs:  reg.Counter("ecstore_client_reconstructions_total"),
		mScans:         reg.Counter("ecstore_client_scans_total"),
		mScanUnreached: reg.Counter("ecstore_client_scan_servers_unreached_total"),
		mCoalesced:     reg.Counter("ecstore_client_coalesced_reads_total"),
		mEpochRetries:  reg.Counter("ecstore_client_epoch_retries_total"),
		mBulkFrames:    reg.Counter("ecstore_client_bulk_frames_total"),
		mBulkSubops:    reg.Counter("ecstore_client_bulk_subops_total"),
		cache: nearcache.New(nearcache.Config{
			MaxBytes: cfg.CacheBytes,
			MaxAge:   cfg.CacheMaxAge,
			Metrics:  reg,
		}),
	}
	c.batchers.New = c.newBatcher
	reg.RegisterFunc("ecstore_client_membership_epoch", func() int64 { return int64(c.view.Epoch()) })
	var err error
	if c.strat, err = c.newStrategy(cfg.Resilience); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) newStrategy(r Resilience) (strategy, error) {
	switch r {
	case ResilienceNone:
		return &repStrategy{c: c, replicas: 1, async: true}, nil
	case ResilienceSyncRep:
		return &repStrategy{c: c, replicas: c.cfg.Replicas, async: false}, nil
	case ResilienceAsyncRep:
		return &repStrategy{c: c, replicas: c.cfg.Replicas, async: true}, nil
	case ResilienceErasure:
		return newECStrategy(c)
	case ResilienceHybrid:
		rep := &repStrategy{c: c, replicas: c.cfg.Replicas, async: true}
		ec, err := newECStrategy(c)
		if err != nil {
			return nil, err
		}
		return &hybridStrategy{rep: rep, ec: ec}, nil
	default:
		return nil, fmt.Errorf("core: unknown resilience mode %v", r)
	}
}

// Close shuts the client down. In-flight operations fail; subsequent
// calls return ErrClosed.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.pool.Close()
	c.wg.Wait()
}

// enter admits one operation to the ARPE: it fails after Close, else
// blocks until a window slot is free. leave gives the slot back.
func (c *Client) enter() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.wg.Add(1)
	c.mu.Unlock()
	c.window <- struct{}{}
	return nil
}

func (c *Client) leave() {
	<-c.window
	c.wg.Done()
}

// run executes fn in a window slot on the calling goroutine — all a
// blocking call needs: with nothing to overlap, a goroutine of its own
// would only add a fresh stack and two wake-ups.
func (c *Client) run(fn func() (Item, error)) (Item, error) {
	if err := c.enter(); err != nil {
		return Item{}, err
	}
	defer c.leave()
	return fn()
}

// submit is run on a goroutine of the operation's own, which is what
// lets encode/decode of one operation overlap the response-wait of
// others. The slot is taken first, so a full window holds the caller.
func (c *Client) submit(fn func() (Item, error)) *Future {
	f := newFuture()
	if err := c.enter(); err != nil {
		f.complete(Item{}, err)
		return f
	}
	go func() {
		defer c.leave()
		f.complete(fn())
	}()
	return f
}

// The operation bodies: the non-blocking form of each public operation
// hands one to submit, the blocking form to run. Each opens the
// operation's batcher (begin) — the executor all its wire rounds go
// through and the ledger of its per-op accounting — and closes it with
// the outcome (end).

func (c *Client) setOp(key string, value []byte, ttl time.Duration) func() (Item, error) {
	return func() (Item, error) {
		b := c.begin("set")
		r := c.retryKeys(false, func([]int) []result {
			return c.strat.set(b, []write{{key: key, value: value, ttl: ttl}})
		})[0]
		c.cache.Invalidate(key)
		if r.err == nil {
			c.fillAfterWrite(key, value, r.item.Version, ttl)
		}
		return b.end(r.item, r.err)
	}
}

// getOp is read for one key: a hit allocates nothing, and a miss keeps
// its key and result in the batcher it begins.
func (c *Client) getOp(key string) func() (Item, error) {
	return func() (Item, error) {
		start := time.Now()
		if v, ok := c.cache.Get(key); ok {
			c.ops["get"].done(start, nil)
			return Item{Value: v.Data, Version: v.Version, TTL: v.TTL}, nil
		}
		b := c.begin("get")
		b.readKey[0] = key
		err := c.fetch(b, b.readKey[:], b.readRes[:])
		r := &b.readRes[0]
		return b.end(Item{Value: r.Data, Version: r.Version, TTL: r.TTL}, err)
	}
}

func (c *Client) deleteOp(key string, expect uint64) func() (Item, error) {
	return func() (Item, error) {
		b := c.begin("delete")
		r := c.retryKeys(false, func([]int) []result {
			return c.strat.del(b, []string{key}, expect)
		})[0]
		c.cache.Invalidate(key)
		return b.end(Item{}, r.err)
	}
}

func (c *Client) casOp(key string, value []byte, ttl time.Duration, cas uint64) func() (Item, error) {
	return func() (Item, error) {
		b := c.begin("cas")
		r := c.retryKeys(false, func([]int) []result {
			version, err := c.strat.compareSet(b, key, value, ttl, cas)
			return []result{{item: Item{Version: version}, err: err}}
		})[0]
		// Invalidate on every outcome: success installed a new version, a
		// conflict is an EXISTS observation proving the cached version
		// stale, and on failure the state is unknown.
		c.cache.Invalidate(key)
		if r.err == nil {
			c.fillAfterWrite(key, value, r.item.Version, ttl)
		}
		return b.end(r.item, r.err)
	}
}

// ISet stores value under key without blocking; completion is
// observed through the returned Future (memcached_iset).
//
// The client reads value while the operation runs — an erasure-coded Set
// codes its data shards straight out of it (erasure.SplitPooled lends
// them), a replicated one puts it on the wire from where it lies once it
// is past wire.FrameInlineThreshold — so, as with memcached_iset's
// buffer, value must not be modified until the Future completes. The
// blocking calls (Set, SetTTL, Cas, Add, MSet) return only then.
func (c *Client) ISet(key string, value []byte) *Future {
	return c.ISetTTL(key, value, 0)
}

// ISetTTL is ISet with an item lifetime (0 = no expiry, as in
// memcached). The wire carries whole seconds, so ttl is rounded UP to
// the next second: a sub-second TTL becomes 1s rather than silently
// truncating to 0 (which would mean "never expires") — an item may
// live slightly longer than requested, never forever. As with ISet,
// value must not be modified until the Future completes.
func (c *Client) ISetTTL(key string, value []byte, ttl time.Duration) *Future {
	return c.submit(c.setOp(key, value, ttl))
}

// IGet fetches key without blocking (memcached_iget).
func (c *Client) IGet(key string) *Future {
	return c.submit(c.getOp(key))
}

// DeleteCas removes key, but only while the stored version still
// equals cas — the atomic conditional delete behind the proxy's
// `md <key> C<cas>`. A changed version yields ErrCASConflict, an absent
// key ErrNotFound. cas must be non-zero: zero is the unconditional
// delete on the wire.
func (c *Client) DeleteCas(key string, cas uint64) error {
	if cas == 0 {
		return fmt.Errorf("core: delete-cas needs a non-zero cas token")
	}
	_, err := c.run(c.deleteOp(key, cas))
	return err
}

// Set stores value under key, blocking until the configured resilience
// guarantee holds (all replicas or all K+M chunks acknowledged).
func (c *Client) Set(key string, value []byte) error {
	return c.SetTTL(key, value, 0)
}

// SetTTL stores value under key with an item lifetime.
func (c *Client) SetTTL(key string, value []byte, ttl time.Duration) error {
	_, err := c.run(c.setOp(key, value, ttl))
	return err
}

// Get returns the value stored under key, reconstructing it from
// parity chunks if servers have failed. The value is read-only
// (Item.Value).
func (c *Client) Get(key string) ([]byte, error) {
	item, err := c.run(c.getOp(key))
	return item.Value, err
}

// Delete removes key from every server holding a copy or chunk.
func (c *Client) Delete(key string) error {
	_, err := c.run(c.deleteOp(key, 0))
	return err
}

// Gets returns the item stored under key with its CAS token and
// remaining TTL — the memcached `gets`.
func (c *Client) Gets(key string) (Item, error) {
	return c.run(c.getOp(key))
}

// Cas stores value only if the current version still equals cas,
// returning the new version on success. A lost race yields
// ErrCASConflict; an absent key yields ErrNotFound.
func (c *Client) Cas(key string, value []byte, ttl time.Duration, cas uint64) (uint64, error) {
	item, err := c.run(c.casOp(key, value, ttl, cas))
	return item.Version, err
}

// SetVersion is SetTTL returning the version the write installed, the
// CAS token a subsequent Gets reports.
func (c *Client) SetVersion(key string, value []byte, ttl time.Duration) (uint64, error) {
	item, err := c.run(c.setOp(key, value, ttl))
	return item.Version, err
}

// adminOps plans one admin request per server of addrs, in their order.
// The servers exempt admin ops from the epoch gate, so the round that
// sends them carries epoch 0.
func adminOps(addrs []string, req wire.BatchReq) []subOp {
	ops := make([]subOp, len(addrs))
	for i, addr := range addrs {
		ops[i] = subOp{addr: addr, req: req}
	}
	return ops
}

// admin sends ops as one round of b — every frame issued before any is
// waited on, all under one OpTimeout, so however many servers hang the
// round costs one timeout — and hands read each server's answer, in
// order, while its body is still leased: op.resp is valid when err is
// nil.
func (b *batcher) admin(ops []subOp, read func(op *subOp, err error)) {
	b.send(ops, 0)
	for i := range ops {
		read(&ops[i], ops[i].fail())
	}
	b.release()
}

// FlushAll clears the item store of every server the current
// membership view names, the servers only a draining ring names
// included: reads still ask them (getDraining, gatherDraining) — the
// memcached `flush_all`. All servers are asked in one round; the first
// error, in AllServers order, is returned.
func (c *Client) FlushAll() error {
	c.cache.InvalidateAll()
	b := c.begin("admin")
	var firstErr error
	b.admin(adminOps(c.view.Current().AllServers(), wire.BatchReq{Op: wire.OpFlush, Key: "flush"}), func(op *subOp, err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: flush %s: %w", op.addr, err)
		}
	})
	// Again after the flush has landed: a read that raced the round may
	// have re-filled a pre-flush value or begun a flight that a
	// post-flush Get must not join.
	c.cache.InvalidateAll()
	_, err := b.end(Item{}, firstErr)
	return err
}

// Ping checks that every server of addrs answers, all in one round,
// and returns an error naming each one that did not.
func (c *Client) Ping(addrs ...string) error {
	b := c.begin("admin")
	var errs []error
	b.admin(adminOps(addrs, wire.BatchReq{Op: wire.OpPing, Key: "admin"}), func(op *subOp, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("core: ping %s: %w", op.addr, err))
		}
	})
	_, err := b.end(Item{}, errors.Join(errs...))
	return err
}

// ServerStatus is one server's OpStats answer, the flat store.Stats
// keys with the metrics snapshot nested under "metrics", or the error
// that kept it.
type ServerStatus struct {
	Addr string `json:"-"`
	store.Stats
	Metrics metrics.Snapshot `json:"metrics"`
	Err     error            `json:"-"`
}

// StatsOf asks every server of addrs for its statistics in one round
// and answers in their order.
func (c *Client) StatsOf(addrs ...string) []ServerStatus {
	b := c.begin("admin")
	out := make([]ServerStatus, 0, len(addrs))
	var firstErr error
	b.admin(adminOps(addrs, wire.BatchReq{Op: wire.OpStats, Key: "admin"}), func(op *subOp, err error) {
		st := ServerStatus{Addr: op.addr}
		if err == nil {
			if derr := json.Unmarshal(op.resp.Value, &st); derr != nil {
				err = fmt.Errorf("core: decode stats of %s: %w", op.addr, derr)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		st.Err = err
		out = append(out, st)
	})
	b.end(Item{}, firstErr)
	return out
}

// ServerStats fetches the store statistics of one server.
func (c *Client) ServerStats(addr string) (store.Stats, error) {
	st := c.StatsOf(addr)[0]
	return st.Stats, st.Err
}

// Metrics returns the client's metrics registry (Config.Metrics, or
// the one created at construction). Serve it over HTTP with
// metrics.Serve, or snapshot it for the stats subcommand.
func (c *Client) Metrics() *metrics.Registry { return c.cfg.Metrics }

// ServerMetrics fetches one server's metrics snapshot.
func (c *Client) ServerMetrics(addr string) (metrics.Snapshot, error) {
	st := c.StatsOf(addr)[0]
	return st.Metrics, st.Err
}

// placement returns the n servers holding key's replicas or chunks —
// the consistent-hash primary plus the next distinct servers (entries
// wrap on a cluster smaller than n) — together with the membership
// epoch the resolution was made at. Servers and epoch come from ONE
// atomic snapshot of the view: every request derived from this
// placement must be stamped with the returned epoch, so a server whose
// ring differs rejects it (StatusWrongEpoch) instead of accepting a
// misplaced write. Stamping a fresher epoch onto a stale placement
// (or vice versa) is exactly the torn-routing race the snapshot
// prevents.
func (c *Client) placement(key string, n int) ([]string, uint64) {
	ring, epoch := c.placementSnapshot()
	return placementOn(ring, key, n), epoch
}

// placementSnapshot returns the current view's ring and epoch as one
// consistent pair. The strategies take one snapshot per round and
// resolve every key against it, so all sub-ops of a round agree.
func (c *Client) placementSnapshot() (*hashring.Ring, uint64) {
	r := c.view.Rings()
	return r.Current, r.View.Epoch
}

// placementOn resolves key's n holders against a specific ring; nil on
// an empty ring.
func placementOn(ring *hashring.Ring, key string, n int) []string {
	if p := appendPlacement(make([]string, 0, n), ring, key, n); len(p) > 0 {
		return p
	}
	return nil
}

// appendPlacement appends key's n holders on ring to dst — the entries
// wrap on a ring of fewer than n members — and nothing on an empty ring.
func appendPlacement(dst []string, ring *hashring.Ring, key string, n int) []string {
	base := len(dst)
	dst = ring.AppendN(dst, key, n)
	for i, got := len(dst)-base, len(dst)-base; got > 0 && i < n; i++ {
		dst = append(dst, dst[base+i%got])
	}
	return dst
}
