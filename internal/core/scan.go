package core

import (
	"fmt"
	"sort"

	"ecstore/internal/wire"
)

// ScanKeys walks the keyspace of every server with paged OpScan
// requests and merges the per-server streams into one sorted list of
// logical keys: derived chunk keys ("key\x00c3") are folded back to
// their base key, and duplicates across replicas and chunk holders are
// removed. It is the discovery half of the anti-entropy loop — Repair
// is the per-key half.
//
// The scan is best-effort across servers: an unreachable server is
// skipped (its keys also live on its replica/parity peers, which is
// exactly what Repair reconstructs from). Only when no server answers
// at all does ScanKeys fail, with ErrUnavailable.
func (c *Client) ScanKeys() ([]string, error) {
	return c.ScanKeysOn(c.view.Current().Servers)
}

// ScanKeysOn is ScanKeys over an explicit server list. The background
// daemon (internal/scrub) passes every server the view names, draining
// rings included: data being drained still lives on servers only an
// older ring names, and a current-view-only scan would miss it.
//
// The servers are paged in lockstep: each round asks every server that
// has more for its next page, so a scan costs the rounds of the
// longest keyspace, not the sum over servers. A request carries only
// its cursor; the server answers pages of wire.DefaultScanLimit keys. A
// server that fails a page keeps the keys of the pages it answered but
// counts as unreached.
func (c *Client) ScanKeysOn(addrs []string) ([]string, error) {
	b := c.begin("admin")
	set := make(map[string]struct{})
	reached := 0
	var lastErr error
	ops := adminOps(distinct(addrs), wire.BatchReq{Op: wire.OpScan, Key: "scan"})
	for len(ops) > 0 {
		var next []subOp
		b.admin(ops, func(op *subOp, err error) {
			var page wire.ScanPage
			if err == nil {
				page, err = wire.DecodeScanPage(op.resp.Value) // copies its keys and cursor out
			}
			if err != nil {
				c.mScanUnreached.Inc()
				lastErr = fmt.Errorf("core: scan %s: %w", op.addr, err)
				return
			}
			for _, stored := range page.Keys {
				key, _ := wire.LogicalKey(stored)
				set[key] = struct{}{}
			}
			if len(page.Next) == 0 {
				reached++
				return
			}
			next = append(next, subOp{addr: op.addr, req: wire.BatchReq{Op: wire.OpScan, Key: "scan", Value: page.Next}})
		})
		ops = next
	}
	c.mScans.Inc()
	if reached == 0 {
		_, err := b.end(Item{}, fmt.Errorf("%w: scan reached no server: %v", ErrUnavailable, lastErr))
		return nil, err
	}
	b.end(Item{}, nil)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// OnServerRecovered registers fn to be called whenever the pool sees a
// server it had down answer again — the signal
// that a crashed server has rejoined (empty) and its share of every
// stripe needs re-filling. scrub.New registers the daemon's Kick here
// so recovery repair starts promptly instead of waiting for the next
// periodic pass. fn must not block (it runs on the rpc completion
// path); scrub.Daemon.Kick is non-blocking by design.
func (c *Client) OnServerRecovered(fn func(addr string)) {
	c.pool.SetRecoveryHook(fn)
}
