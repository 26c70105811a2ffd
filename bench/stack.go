package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/memproto"
	"ecstore/internal/transport"
)

// countNet wraps the cluster fabric. It is always on: every Write adds
// to two counters, which is what wire_bytes_per_user_byte is made of.
// With a span log attached it also stamps each Write and, on the accept
// side, each frame's residence in the server.
type countNet struct {
	inner transport.Network
	bytes atomic.Int64 // bytes written, both directions
	wr    atomic.Int64 // Write calls, both directions
	log   *spanLog     // nil unless this is a traced run
}

func (n *countNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countListener{Listener: l, net: n}, nil
}

func (n *countNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, net: n}, nil
}

type countListener struct {
	transport.Listener
	net *countNet
}

func (l *countListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, net: l.net, accepted: true}, nil
}

type countConn struct {
	transport.Conn
	net      *countNet
	accepted bool
	// lastRead is when the accept side last read bytes (nanoseconds
	// since the span log's base), cleared by the Write that answers
	// them. The server reads and writes a connection from different
	// goroutines.
	lastRead atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.accepted && n > 0 && c.net.log.enabled() {
		c.lastRead.Store(int64(time.Since(c.net.log.base)))
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	log := c.net.log
	traced := log.enabled()
	var start time.Time
	if traced {
		start = time.Now()
		if lr := c.lastRead.Swap(0); lr != 0 {
			log.add(layerServer, log.base.Add(time.Duration(lr)), start)
		}
	}
	n, err := c.Conn.Write(p)
	if traced {
		log.add(layerWrite, start, time.Now())
	}
	c.net.bytes.Add(int64(n))
	c.net.wr.Add(1)
	return n, err
}

// stack is the system under test for one round: a 5-server cluster on
// the counted in-process fabric, the measured client, and for
// proxy-mget the memcached proxy in front of it.
type stack struct {
	spec    *spec
	net     *countNet
	cluster *cluster.Cluster
	client  *core.Client
	proxy   *memproto.Server
}

const (
	numServers = 5 // the paper's cluster: RS(3,2), F=3
	ecK, ecM   = 3, 2
	replicas   = 3
)

func startStack(sp *spec, log *spanLog) (*stack, error) {
	net := &countNet{inner: transport.NewInproc(transport.Shape{}), log: log}
	// Default addresses kv-0..kv-4: placement must not depend on
	// ephemeral names.
	cl, err := cluster.Start(cluster.Config{
		N:                   numServers,
		Network:             net,
		StoreBytesPerServer: sp.storeBytesPerServer,
	})
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	return &stack{spec: sp, net: net, cluster: cl}, nil
}

// newClient builds a client of the workload's mode. Preloading uses one
// client and the measured phases another, so the measured client's
// registry (latency histograms above all) holds nothing from set-up,
// and — on degraded-64k — its connection pool has never seen the killed
// server.
func (s *stack) newClient(cacheBytes int64) (*core.Client, error) {
	c, err := core.New(core.Config{
		Network:    s.net,
		Servers:    s.cluster.Addrs(),
		Resilience: s.spec.resilience,
		Scheme:     core.SchemeCECD,
		K:          ecK,
		M:          ecM,
		Replicas:   replicas,
		Window:     s.spec.window,
		CacheBytes: cacheBytes,
		// No residency cap: a 5 s cap would expire entries in the middle
		// of a timed phase and make the hit ratio a function of wall
		// time. Invalidation on local writes stays.
		CacheMaxAge: -1,
	})
	if err != nil {
		return nil, fmt.Errorf("new client: %w", err)
	}
	return c, nil
}

// startProxy serves backend on an ephemeral TCP-loopback port — the one
// address in the benchmark that is not fixed; nothing hashes it.
func (s *stack) startProxy(backend memproto.Backend) error {
	ln, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("proxy listen: %w", err)
	}
	s.proxy = memproto.Serve(ln, backend)
	return nil
}

func (s *stack) stopProxy() {
	if s.proxy != nil {
		s.proxy.Close()
		s.proxy = nil
	}
}

func (s *stack) close() {
	s.stopProxy()
	if s.client != nil {
		s.client.Close()
	}
	s.cluster.Close()
}

// storedBytes sums what the servers' stores hold.
func (s *stack) storedBytes() (used, items int64) {
	for i := 0; i < numServers; i++ {
		if srv := s.cluster.Server(i); srv != nil {
			st := srv.Store().Stats()
			used += st.UsedBytes
			items += st.Items
		}
	}
	return used, items
}

// tracedBackend records one span per backend call the proxy makes.
// Only the three calls the workload causes are wrapped.
type tracedBackend struct {
	memproto.Backend
	log *spanLog
}

// span closes a backend span opened at start; use as
// `defer b.span(time.Now())`.
func (b *tracedBackend) span(start time.Time) {
	if b.log.enabled() {
		b.log.add(layerBackend, start, time.Now())
	}
}

func (b *tracedBackend) Set(key string, value []byte, ttl time.Duration) (uint64, error) {
	defer b.span(time.Now())
	return b.Backend.Set(key, value, ttl)
}

func (b *tracedBackend) Get(key string) (memproto.Item, error) {
	defer b.span(time.Now())
	return b.Backend.Get(key)
}

func (b *tracedBackend) GetMulti(keys []string) (map[string]memproto.Item, map[string]error) {
	defer b.span(time.Now())
	return b.Backend.GetMulti(keys)
}
