package core

import (
	"cmp"
	"time"

	"ecstore/internal/membership"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// Coordinator is the server half of the Era-SE-* schemes: the erasure
// strategy a server runs for the OpEncodeSet and OpDecodeGet it
// receives — the same stripeSet and gatherGet a client-encoding,
// client-decoding Client runs, so one coordinator is reached by two
// routes. It works over the server's peer pool and membership view: its
// own chunks go through the pool to the server's own address like any
// peer's, and its rounds carry the view's epoch.
//
// A Coordinator calls the strategy directly. It has no near cache and
// no transient retries — the client that sent the op keeps that budget
// — and retries an epoch rejection only, after refreshing the view from
// the cluster. Nor does it coalesce reads: a
// Cas, an Add and a Delete write their chunks from the client, never
// through a coordinator, so a decode-get joined to one already in
// flight could answer the value from before that client's acknowledged
// write.
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

// Serve runs subs, one coordinated op at the coordinator's geometry, as
// ONE strategy call — a stripeSet over every encode-set, or a gatherGet
// over every decode-get with its absence rule — so each holder gets one
// frame a round, and gives answer every sub-op's outcome by position:
// the item read, or the stripe a write installed as its Version.
func (co *Coordinator) Serve(subs []wire.BatchReq, answer func(i int, item Item, err error)) {
	set, op := subs[0].Op == wire.OpEncodeSet, "get"
	if set {
		op = "set"
	}
	b := co.c.begin(op)
	var res []result
	if set {
		var one [1]write // a batch of one stays on the stack
		writes := one[:]
		if len(subs) > 1 {
			writes = make([]write, len(subs))
		}
		for i, sub := range subs {
			writes[i] = write{key: sub.Key, value: sub.Value, ttl: time.Duration(sub.TTLSeconds) * time.Second}
		}
		res = co.c.retryKeys(false, func(idx []int) []result { return co.e.set(b, subset(writes, idx)) })
	} else {
		var one [1]string
		keys := one[:]
		if len(subs) > 1 {
			keys = make([]string, len(subs))
		}
		for i, sub := range subs {
			keys[i] = sub.Key
		}
		res = co.c.retryKeys(false, func(idx []int) []result { return co.e.gatherGet(b, subset(keys, idx)) })
	}
	var first error
	for i, r := range res {
		answer(i, r.item, r.err)
		first = cmp.Or(first, r.err)
	}
	b.end(Item{}, first)
}
