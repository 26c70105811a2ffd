package core

import (
	"fmt"

	"ecstore/internal/membership"
	"ecstore/internal/wire"
)

// epochRetryLimit bounds how many membership changes one logical
// operation chases before giving up: each retry refreshes the view and
// re-resolves placement, so under a flapping ring the operation fails
// with the epoch error instead of spinning forever.
const epochRetryLimit = 3

// View returns the client's current membership view.
func (c *Client) View() membership.View { return c.view.Current() }

// OnViewChange registers fn to run whenever the client adopts a newer
// membership view — whether via RefreshView or an admin push. scrub.New
// hooks here so placement changes start draining automatically. fn must
// not block.
func (c *Client) OnViewChange(fn func(old, new membership.View)) {
	c.view.OnChange(fn)
}

// RefreshView polls every server the client knows of (RingStatus) for
// its membership view, adopts the newest epoch, and best-effort pushes
// the winner to the servers that answered with an older one (the
// read-repair half of the epoch protocol: a stale server rejects every
// data request until it catches up, so repairing it directly shortens
// the outage window). The poll is one round and the pushes another. It
// fails only when NO server answered.
func (c *Client) RefreshView() (membership.View, error) {
	b := c.begin("admin")
	cur := c.view.Current()
	statuses := c.ringStatus(b)
	best := cur
	reached := 0
	var lastErr error
	for _, st := range statuses {
		if st.Err != nil {
			lastErr = st.Err
			continue
		}
		reached++
		if st.View.Epoch > best.Epoch {
			best = st.View
		}
	}
	if reached == 0 {
		_, err := b.end(Item{}, fmt.Errorf("%w: ring refresh reached no server: %v", ErrUnavailable, lastErr))
		return cur, err
	}
	c.view.Adopt(best)
	var stale []string
	for _, st := range statuses {
		if st.Err == nil && st.View.Epoch < best.Epoch {
			stale = append(stale, st.Addr)
		}
	}
	c.pushView(b, stale, best) // best effort
	b.end(Item{}, nil)
	return c.view.Current(), nil
}

// pushView offers v to every server of addrs in one round of b, and
// adopts the newest view any of them answers with (v, or something even
// newer a concurrent change installed). It fails when no server took
// the offer.
func (c *Client) pushView(b *batcher, addrs []string, v membership.View) error {
	acked := 0
	var lastErr error
	b.admin(adminOps(addrs, wire.BatchReq{Op: wire.OpRingUpdate, Key: "ring", Value: v.Encode()}), func(op *subOp, err error) {
		var got membership.View
		if err == nil {
			got, err = membership.Decode(op.resp.Value)
		}
		if err != nil {
			lastErr = err
			return
		}
		acked++
		if got.Epoch > v.Epoch {
			c.view.Adopt(got)
		}
	})
	if acked == 0 {
		return fmt.Errorf("%w: no server adopted epoch %d: %v", ErrUnavailable, v.Epoch, lastErr)
	}
	return nil
}

// PushView installs v locally and propagates it, in one round, to every
// server of both the outgoing and incoming views, draining rings
// included — a departing server must learn the view that excludes it,
// or it would keep accepting same-epoch traffic forever, and a server a
// draining ring still names is sent the convergence's rounds stamped
// with v's epoch. Unreachable servers are skipped (they adopt on
// restart or via client read-repair); PushView fails only when no
// server adopted. It returns the cluster's view afterwards, which may
// be newer than v if a concurrent change won.
func (c *Client) PushView(v membership.View) (membership.View, error) {
	if err := v.Validate(); err != nil {
		return membership.View{}, err
	}
	b := c.begin("admin")
	old := c.view.Current()
	c.view.Adopt(v)
	_, err := b.end(Item{}, c.pushView(b, distinct(append(v.AllServers(), old.AllServers()...)), v))
	return c.view.Current(), err
}

// RingAdd proposes a membership view with addr joined, pushes it to
// the cluster, and returns the installed view. The proposal is built
// on a freshly refreshed view so a concurrent change is not silently
// overwritten by a stale epoch+1, and it drains the outgoing ring (and
// whatever that view still drained) until a background pass has moved
// every key (internal/scrub).
func (c *Client) RingAdd(addr string) (membership.View, error) {
	return c.changeRing(addr, true)
}

// RingRemove proposes a membership view with addr removed and pushes
// it to the cluster (including addr itself, so a still-live departing
// server stops accepting placement traffic immediately). Like RingAdd,
// the view drains the outgoing ring.
func (c *Client) RingRemove(addr string) (membership.View, error) {
	return c.changeRing(addr, false)
}

// changeRing publishes the view after the cluster's current one with
// addr joined (add) or departed.
func (c *Client) changeRing(addr string, add bool) (membership.View, error) {
	cur, err := c.RefreshView()
	switch {
	case err != nil:
		return cur, err
	case add && cur.Contains(addr):
		return cur, fmt.Errorf("core: %s is already a member of epoch %d", addr, cur.Epoch)
	case add:
		return c.PushView(cur.WithAdded(addr))
	case !cur.Contains(addr):
		return cur, fmt.Errorf("core: %s is not a member of epoch %d", addr, cur.Epoch)
	case len(cur.Servers) == 1:
		return cur, fmt.Errorf("core: refusing to remove the last server %s", addr)
	}
	return c.PushView(cur.WithRemoved(addr))
}

// RingServerStatus is one server's answer in a RingStatus sweep.
type RingServerStatus struct {
	Addr string
	View membership.View
	Err  error
}

// RingStatus reports the membership view each known server — every
// server the current view names, draining rings included, and the
// configured seeds — currently holds, for the admin `ring status`
// surface and RefreshView: disagreement between the rows is the
// propagation lag the epoch protocol closes. The servers are asked in
// one round.
func (c *Client) RingStatus() []RingServerStatus {
	b := c.begin("admin")
	defer b.end(Item{}, nil)
	return c.ringStatus(b)
}

// ringStatus is RingStatus as one round of b.
func (c *Client) ringStatus(b *batcher) []RingServerStatus {
	ops := adminOps(distinct(append(c.view.Current().AllServers(), c.cfg.Servers...)), wire.BatchReq{Op: wire.OpRingGet, Key: "ring"})
	out := make([]RingServerStatus, 0, len(ops))
	b.admin(ops, func(op *subOp, err error) {
		st := RingServerStatus{Addr: op.addr, Err: err}
		if err == nil {
			st.View, st.Err = membership.Decode(op.resp.Value)
		}
		out = append(out, st)
	})
	return out
}
