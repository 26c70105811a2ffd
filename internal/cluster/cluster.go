// Package cluster is the orchestration harness used by tests,
// examples and command-line tools: it starts an N-server key-value
// store cluster on a shared transport, and can kill and restart
// individual servers to exercise degraded reads and recovery.
package cluster

import (
	"fmt"

	"ecstore/internal/membership"
	"ecstore/internal/server"
	"ecstore/internal/store"
	"ecstore/internal/transport"
)

// Config configures a Cluster.
type Config struct {
	// N is the number of servers, kv-0..kv-N-1 (required).
	N int
	// Network is the shared transport (an unshaped Inproc if nil).
	Network transport.Network
	// StoreBytesPerServer caps each server's memory (0 = unlimited).
	StoreBytesPerServer int64
}

// Cluster is a running group of servers.
type Cluster struct {
	cfg     Config
	network transport.Network
	addrs   []string
	servers []*server.Server // nil entries are killed servers
	removed []bool           // tombstones: decommissioned, not restartable
}

// Start launches the cluster.
func Start(cfg Config) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("cluster: need N > 0")
	}
	addrs := make([]string, cfg.N)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("kv-%d", i)
	}
	network := cfg.Network
	if network == nil {
		network = transport.NewInproc(transport.Shape{})
	}
	c := &Cluster{
		cfg:     cfg,
		network: network,
		addrs:   addrs,
		servers: make([]*server.Server, len(addrs)),
		removed: make([]bool, len(addrs)),
	}
	for i := range addrs {
		if err := c.start(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) start(i int) error {
	srv, err := server.New(server.Config{
		Addr:    c.addrs[i],
		Network: c.network,
		Peers:   c.addrs,
		Store:   store.Config{MaxBytes: c.cfg.StoreBytesPerServer},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		return fmt.Errorf("cluster: start server %d: %w", i, err)
	}
	c.servers[i] = srv
	return nil
}

// Network returns the shared transport (pass it to core.Config).
func (c *Cluster) Network() transport.Network { return c.network }

// Addrs returns the server addresses (pass them to core.Config).
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.addrs))
	copy(out, c.addrs)
	return out
}

// Server returns server i, or nil if it is killed.
func (c *Cluster) Server(i int) *server.Server { return c.servers[i] }

// Kill stops server i, simulating a node failure. Its in-memory data
// is lost, as with a crashed Memcached instance.
func (c *Cluster) Kill(i int) {
	if srv := c.servers[i]; srv != nil {
		srv.Close()
		c.servers[i] = nil
	}
}

// Restart brings a killed server back (with an empty store). The
// restarted server seeds its membership view from its static peer list
// (epoch 1); use RestartWithView to bring it straight into a newer
// epoch, or let client read-repair catch it up.
func (c *Cluster) Restart(i int) error {
	if c.removed[i] {
		return fmt.Errorf("cluster: server %d was removed from the cluster", i)
	}
	if c.servers[i] != nil {
		return fmt.Errorf("cluster: server %d is already running", i)
	}
	return c.start(i)
}

// RestartWithView restarts server i and installs v as its membership
// view — the rolling-restart path: the server rejoins already speaking
// the cluster's current epoch instead of rejecting traffic until a
// client read-repairs it.
func (c *Cluster) RestartWithView(i int, v membership.View) error {
	if err := c.Restart(i); err != nil {
		return err
	}
	c.servers[i].AdoptView(v)
	return nil
}

// AddServer starts a new, empty server on addr and returns its index.
// The server joins the transport immediately but NOT the membership
// ring: it seeds a private epoch-1 view and no existing member routes
// to it until an admin pushes a view that includes it (core.Client
// RingAdd) — the join is invisible to traffic until the epoch bump.
func (c *Cluster) AddServer(addr string) (int, error) {
	if addr == "" {
		return 0, fmt.Errorf("cluster: AddServer needs an address")
	}
	for _, a := range c.addrs {
		if a == addr {
			return 0, fmt.Errorf("cluster: address %s is already in the cluster", addr)
		}
	}
	c.addrs = append(c.addrs, addr)
	c.servers = append(c.servers, nil)
	c.removed = append(c.removed, false)
	i := len(c.addrs) - 1
	if err := c.start(i); err != nil {
		c.removed[i] = true
		return 0, err
	}
	return i, nil
}

// RemoveServer decommissions server i: it is stopped and tombstoned so
// Restart refuses to bring it back. Like AddServer, this only touches
// the process — draining its data and publishing the shrunken ring is
// the admin flow's job (core.Client RingRemove + migration), normally
// BEFORE the process goes away.
func (c *Cluster) RemoveServer(i int) {
	c.Kill(i)
	c.removed[i] = true
}

// Alive returns the number of running servers.
func (c *Cluster) Alive() int {
	n := 0
	for _, s := range c.servers {
		if s != nil {
			n++
		}
	}
	return n
}

// Close stops every running server.
func (c *Cluster) Close() {
	for i, s := range c.servers {
		if s != nil {
			s.Close()
			c.servers[i] = nil
		}
	}
}
