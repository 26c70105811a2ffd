package memproto_test

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/memproto"
	"ecstore/internal/transport"
)

// proxyModes enumerates every resilience configuration the proxy can
// front, mirroring the core test matrix.
func proxyModes() map[string]core.Config {
	return map[string]core.Config{
		"none":      {Resilience: core.ResilienceNone},
		"sync-rep":  {Resilience: core.ResilienceSyncRep, Replicas: 3},
		"async-rep": {Resilience: core.ResilienceAsyncRep, Replicas: 3},
		"era-ce-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2},
		"era-se-sd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeSESD, K: 3, M: 2},
		"era-se-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeSECD, K: 3, M: 2},
		"hybrid":    {Resilience: core.ResilienceHybrid, Replicas: 3, K: 3, M: 2},
	}
}

// startProxyMode boots a netem-wrapped 5-server cluster with a proxy in
// the given resilience mode, returning the fault injector and the
// backing core client (for metric assertions).
func startProxyMode(t *testing.T, cfg core.Config) (*cluster.Cluster, *transport.Netem, *core.Client, func() *textClient) {
	t.Helper()
	netem := transport.NewNetem(transport.NewInproc(transport.Shape{}))
	cl, err := cluster.Start(cluster.Config{N: 5, Network: netem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	cfg.Network = cl.Network()
	cfg.Servers = cl.Addrs()
	cfg.OpTimeout = 500 * time.Millisecond
	client, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	ln, err := cl.Network().Listen("memproxy")
	if err != nil {
		t.Fatal(err)
	}
	srv := memproto.Serve(ln, &memproto.ClusterBackend{Client: client})
	t.Cleanup(srv.Close)
	dial := func() *textClient {
		conn, err := cl.Network().Dial("memproxy")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return &textClient{t: t, conn: conn, br: bufio.NewReader(conn)}
	}
	return cl, netem, client, dial
}

// mget issues one multi-get and parses the whole reply: the VALUE
// blocks seen (in order) and the terminating line ("END" on success,
// "SERVER_ERROR ..." when any key's state was undeterminable).
func (c *textClient) mget(keys ...string) (map[string][]byte, string) {
	c.t.Helper()
	c.send("get %s\r\n", strings.Join(keys, " "))
	values := make(map[string][]byte)
	for {
		line := c.line()
		if line == "END" || strings.HasPrefix(line, "SERVER_ERROR") {
			return values, line
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[0] != "VALUE" {
			c.t.Fatalf("unexpected multi-get line %q", line)
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil {
			c.t.Fatalf("bad length in %q", line)
		}
		values[fields[1]] = c.read(n)
		c.read(2) // trailing \r\n
	}
}

// TestProxyMultiGetConformance drives the memcached conformance matrix
// of DESIGN §12 through every resilience mode:
//
//  1. a multi-get is ONE backend bulk call (never per-key gets),
//  2. absent keys are silent misses — healthy and degraded alike,
//  3. within the mode's fault tolerance a down server changes nothing
//     observable: all stored keys still come back as VALUE blocks,
//  4. beyond tolerance, unreachable keys turn the reply into
//     SERVER_ERROR — never a silent miss a cache filler would
//     "refill" with stale data.
func TestProxyMultiGetConformance(t *testing.T) {
	modes := proxyModes()
	names := make([]string, 0, len(modes))
	for name := range modes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := modes[name]
		t.Run(name, func(t *testing.T) {
			cl, netem, client, dial := startProxyMode(t, cfg)
			c := dial()

			stored := make(map[string]string, 8)
			keys := make([]string, 0, 10)
			for i := 0; i < 8; i++ {
				key := fmt.Sprintf("conf-%s-%d", name, i)
				val := fmt.Sprintf("payload-%d", i)
				c.send("set %s 0 0 %d\r\n%s\r\n", key, len(val), val)
				if line := c.line(); line != "STORED" {
					t.Fatalf("set %s: %q", key, line)
				}
				stored[key] = val
				keys = append(keys, key)
			}
			keys = append(keys, "conf-"+name+"-ghost-a", "conf-"+name+"-ghost-b")

			// Healthy: every stored key a VALUE, absent keys silent, and
			// the whole batch exactly one backend bulk call.
			snap := client.Metrics().Snapshot()
			mgetBefore := snap.Counter(`ecstore_client_ops_total{op="mget"}`)
			getBefore := snap.Counter(`ecstore_client_ops_total{op="get"}`)
			values, end := c.mget(keys...)
			if end != "END" {
				t.Fatalf("healthy multi-get ended %q", end)
			}
			if len(values) != len(stored) {
				t.Fatalf("healthy multi-get returned %d of %d stored keys", len(values), len(stored))
			}
			for key, val := range stored {
				if string(values[key]) != val {
					t.Fatalf("%s = %q, want %q", key, values[key], val)
				}
			}
			snap = client.Metrics().Snapshot()
			if d := snap.Counter(`ecstore_client_ops_total{op="mget"}`) - mgetBefore; d != 1 {
				t.Fatalf("multi-get made %d bulk backend calls, want 1", d)
			}
			if d := snap.Counter(`ecstore_client_ops_total{op="get"}`) - getBefore; d != 0 {
				t.Fatalf("multi-get leaked %d per-key backend gets, want 0", d)
			}

			// Within tolerance: one server down is invisible (mode "none"
			// tolerates nothing, so it skips straight to the outage).
			if cfg.Resilience != core.ResilienceNone {
				netem.Cut(cl.Addrs()[0])
				values, end = c.mget(keys...)
				if end != "END" {
					t.Fatalf("multi-get with one server cut ended %q", end)
				}
				if len(values) != len(stored) {
					t.Fatalf("one server cut: %d of %d stored keys returned", len(values), len(stored))
				}
				for _, ghost := range keys[len(keys)-2:] {
					if _, ok := values[ghost]; ok {
						t.Fatalf("absent key %q materialized under failure", ghost)
					}
				}
			}

			// Beyond tolerance (every server down): stored keys are now
			// UNREACHABLE, not absent — the reply must be SERVER_ERROR.
			for _, addr := range cl.Addrs() {
				netem.Cut(addr)
			}
			_, end = c.mget(keys...)
			if !strings.HasPrefix(end, "SERVER_ERROR") {
				t.Fatalf("multi-get beyond tolerance ended %q, want SERVER_ERROR", end)
			}

			for _, addr := range cl.Addrs() {
				netem.Restore(addr)
			}
		})
	}
}

// TestProxyStatsExposeBulkCounters: the proxy's `stats` reply carries
// the bulk-path counters so an operator can verify batching from the
// memcached side without touching the metrics registry.
func TestProxyStatsExposeBulkCounters(t *testing.T) {
	_, _, _, dial := startProxyMode(t, proxyModes()["era-ce-cd"])
	c := dial()

	val := "bulk-stats-payload"
	c.send("set bulkstat-a 0 0 %d\r\n%s\r\n", len(val), val)
	if line := c.line(); line != "STORED" {
		t.Fatalf("set: %q", line)
	}
	c.send("set bulkstat-b 0 0 %d\r\n%s\r\n", len(val), val)
	if line := c.line(); line != "STORED" {
		t.Fatalf("set: %q", line)
	}
	if _, end := c.mget("bulkstat-a", "bulkstat-b", "bulkstat-ghost"); end != "END" {
		t.Fatalf("multi-get ended %q", end)
	}

	c.send("stats\r\n")
	stats := make(map[string]string)
	for {
		line := c.line()
		if line == "END" {
			break
		}
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] == "STAT" {
			stats[fields[1]] = fields[2]
		}
	}
	frames, err := strconv.ParseInt(stats["bulk_frames"], 10, 64)
	if err != nil || frames < 1 {
		t.Fatalf("stats bulk_frames = %q, want a positive count", stats["bulk_frames"])
	}
	subops, err := strconv.ParseInt(stats["bulk_subops"], 10, 64)
	if err != nil || subops < frames {
		t.Fatalf("stats bulk_subops = %q (frames %d), want >= frames", stats["bulk_subops"], frames)
	}
}
