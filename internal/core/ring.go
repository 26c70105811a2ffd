package core

import (
	"fmt"
	"sync"

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
// its membership view,
// adopts the newest epoch, and best-effort pushes the winner to the
// servers that answered with an older one (the read-repair half of the
// epoch protocol: a stale server rejects every data request until it
// catches up, so repairing it directly shortens the outage window).
// It fails only when NO server answered.
func (c *Client) RefreshView() (membership.View, error) {
	cur := c.view.Current()
	statuses := c.RingStatus()
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
		return cur, fmt.Errorf("%w: ring refresh reached no server: %v", ErrUnavailable, lastErr)
	}
	c.view.Adopt(best)
	for _, st := range statuses {
		if st.Err == nil && st.View.Epoch < best.Epoch {
			_, _ = c.pushViewTo(st.Addr, best)
		}
	}
	return c.view.Current(), nil
}

// pushViewTo offers v to one server over the wire, returning the view
// the server holds afterwards (v, or something even newer).
func (c *Client) pushViewTo(addr string, v membership.View) (membership.View, error) {
	resp, err := c.pool.Roundtrip(addr, &wire.Request{
		Op: wire.OpRingUpdate, Key: "ring", Value: v.Encode(),
	})
	if err != nil {
		resp.Release()
		return membership.View{}, err
	}
	got, derr := membership.Decode(resp.Value)
	resp.Release()
	return got, derr
}

// PushView installs v locally and propagates it to every server of
// both the outgoing and incoming views, draining rings included — a
// departing server must learn the view that excludes it, or it would
// keep accepting same-epoch traffic forever, and a server a draining
// ring still names is sent the convergence's rounds stamped with v's
// epoch. Unreachable servers are skipped (they adopt on
// restart or via client read-repair); PushView fails only when no
// server adopted. It returns the cluster's view afterwards, which may
// be newer than v if a concurrent change won.
func (c *Client) PushView(v membership.View) (membership.View, error) {
	if err := v.Validate(); err != nil {
		return membership.View{}, err
	}
	old := c.view.Current()
	c.view.Adopt(v)
	targets := distinct(append(v.AllServers(), old.AllServers()...))
	acked := 0
	var lastErr error
	for _, addr := range targets {
		got, err := c.pushViewTo(addr, v)
		if err != nil {
			lastErr = err
			continue
		}
		acked++
		if got.Epoch > v.Epoch {
			c.view.Adopt(got)
		}
	}
	if acked == 0 {
		return c.view.Current(), fmt.Errorf("%w: no server adopted epoch %d: %v", ErrUnavailable, v.Epoch, lastErr)
	}
	return c.view.Current(), nil
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
// propagation lag the epoch protocol closes.
func (c *Client) RingStatus() []RingServerStatus {
	cur := c.view.Current()
	addrs := distinct(append(cur.AllServers(), c.cfg.Servers...))
	out := make([]RingServerStatus, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			out[i].Addr = addr
			resp, err := c.pool.Roundtrip(addr, &wire.Request{Op: wire.OpRingGet, Key: "ring"})
			if err != nil {
				resp.Release()
				out[i].Err = err
				return
			}
			v, derr := membership.Decode(resp.Value)
			resp.Release()
			out[i].View, out[i].Err = v, derr
		}(i, addr)
	}
	wg.Wait()
	return out
}
