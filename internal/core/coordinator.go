package core

import (
	"time"

	"ecstore/internal/membership"
	"ecstore/internal/rpc"
)

// Coordinator is the server half of the Era-SE-* and Era-*-SD schemes:
// the erasure strategy a server runs for the OpEncodeSet and OpDecodeGet
// it receives — the same stripeSet and gatherGet a client-encoding,
// client-decoding Client runs, so one coordinator is reached by two
// routes. It works over the server's peer pool and membership view: its
// own chunks go through the pool to the server's own address like any
// peer's, and its rounds carry the view's epoch.
//
// A Coordinator calls the strategy directly. It has no near cache, no
// delta attempt and no transient retries — the client that sent the op
// keeps that budget — and retries an epoch rejection only, after
// refreshing the view from the cluster. Nor does it coalesce reads: an
// era-ce-sd client's own Sets never pass through it, so a decode-get
// joined to one already in flight could answer the value from before
// that client's acknowledged write.
type Coordinator struct {
	c *Client
	e *ecStrategy
}

// NewCoordinator returns the RS(cfg.K, cfg.M) coordinator over pool and
// view, which the caller owns and closes. cfg's OpTimeout bounds each
// round and its Metrics receives the ecstore_client_* series of the ops
// coordinated; the pool and view stand in for its Network and Servers,
// and Resilience and Scheme are the coordinator's own.
func NewCoordinator(cfg Config, pool *rpc.Pool, view *membership.Tracker) (*Coordinator, error) {
	cfg.Resilience, cfg.Scheme = ResilienceErasure, SchemeCECD
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c, err := newClient(cfg, pool, view)
	if err != nil {
		return nil, err
	}
	return &Coordinator{c: c, e: c.strat.(*ecStrategy)}, nil
}

// Set stripes value over key's placement — stripeSet over one write,
// which unwinds the stripe if any chunk write fails — and returns the
// stripe, the version the write installed.
func (co *Coordinator) Set(key string, value []byte, ttl time.Duration) (uint64, error) {
	b := co.c.begin("set")
	writes := [1]write{{key: key, value: value, ttl: ttl}}
	r := co.c.retryKeys(false, func([]int) []result { return co.e.set(b, writes[:]) })[0]
	item, err := b.end(r.item, r.err)
	return item.Version, err
}

// Get gathers and decodes key — gatherGet over one key, with its rounds,
// its draining round and its absence rule: ErrNotFound only on
// conclusive evidence, ErrUnavailable for anything weaker.
func (co *Coordinator) Get(key string) (Item, error) {
	b := co.c.begin("get")
	keys := [1]string{key}
	r := co.c.retryKeys(false, func([]int) []result { return co.e.gatherGet(b, keys[:]) })[0]
	return b.end(r.item, r.err)
}
