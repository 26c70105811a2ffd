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
func (c *Client) ScanKeysOn(addrs []string) ([]string, error) {
	set := make(map[string]struct{})
	reached := 0
	var lastErr error
	for _, addr := range distinct(addrs) {
		err := c.scanServer(addr, func(stored string) {
			key, _ := wire.LogicalKey(stored)
			set[key] = struct{}{}
		})
		if err != nil {
			c.mScanUnreached.Inc()
			lastErr = err
			continue
		}
		reached++
	}
	c.mScans.Inc()
	if reached == 0 {
		return nil, fmt.Errorf("%w: scan reached no server: %v", ErrUnavailable, lastErr)
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// scanServer pages through one server's keyspace, calling emit for
// every stored key. The requests carry no page size, so the server
// answers pages of wire.DefaultScanLimit keys.
func (c *Client) scanServer(addr string, emit func(string)) error {
	var cursor []byte
	for {
		resp, err := c.pool.Roundtrip(addr, &wire.Request{Op: wire.OpScan, Key: "scan", Value: cursor})
		if err != nil {
			resp.Release()
			return err
		}
		page, err := wire.DecodeScanPage(resp.Value)
		resp.Release() // the page copied its keys and cursor out
		if err != nil {
			return fmt.Errorf("core: scan %s: %w", addr, err)
		}
		for _, k := range page.Keys {
			emit(k)
		}
		if len(page.Next) == 0 {
			return nil
		}
		cursor = page.Next
	}
}

// OnServerRecovered registers fn to be called whenever the rpc health
// tracker sees a previously suspect server answer again — the signal
// that a crashed server has rejoined (empty) and its share of every
// stripe needs re-filling. scrub.New registers the daemon's Kick here
// so recovery repair starts promptly instead of waiting for the next
// periodic pass. fn must not block (it runs on the rpc completion
// path); scrub.Daemon.Kick is non-blocking by design.
func (c *Client) OnServerRecovered(fn func(addr string)) {
	c.pool.SetRecoveryHook(fn)
}
