package memproto

import (
	"io"
	"time"

	"ecstore/internal/metrics"
	"ecstore/internal/stats"
)

// knownCommands is the command vocabulary whose metrics are resolved
// once at construction time, so the per-request path pays atomic ops
// only. Commands outside the list (typos, probes) fall into the
// "other" bucket instead of growing the registry unboundedly.
var knownCommands = []string{
	"get", "gets", "set", "add", "replace", "append", "prepend", "cas",
	"delete", "incr", "decr", "touch", "flush_all", "stats", "version",
	"verbosity", "quit", "mg", "ms", "md", "ma", "mn", "other",
}

// cmdMetrics is one command's counter/histogram trio.
type cmdMetrics struct {
	total   *metrics.Counter
	errors  *metrics.Counter
	latency *stats.Histogram
}

// proxyMetrics publishes the proxy-side view of the workload:
// per-command throughput, failure counts and latency, the get
// hit/miss split, connection count, and raw protocol bytes moved.
type proxyMetrics struct {
	cmds         map[string]*cmdMetrics
	hits         *metrics.Counter
	misses       *metrics.Counter
	bytesIn      *metrics.Counter
	bytesOut     *metrics.Counter
	connsActive  *metrics.Gauge
	connsTotal   *metrics.Counter
	casExhausted *metrics.Counter
}

func newProxyMetrics(reg *metrics.Registry) *proxyMetrics {
	pm := &proxyMetrics{
		cmds:         make(map[string]*cmdMetrics, len(knownCommands)),
		hits:         reg.Counter("ecstore_proxy_get_hits_total"),
		misses:       reg.Counter("ecstore_proxy_get_misses_total"),
		bytesIn:      reg.Counter("ecstore_proxy_bytes_read_total"),
		bytesOut:     reg.Counter("ecstore_proxy_bytes_written_total"),
		connsActive:  reg.Gauge("ecstore_proxy_connections_active"),
		connsTotal:   reg.Counter("ecstore_proxy_connections_total"),
		casExhausted: reg.Counter("ecstore_proxy_cas_retries_exhausted_total"),
	}
	for _, cmd := range knownCommands {
		pm.cmds[cmd] = &cmdMetrics{
			total:   reg.Counter(`ecstore_proxy_cmds_total{cmd="` + cmd + `"}`),
			errors:  reg.Counter(`ecstore_proxy_cmd_errors_total{cmd="` + cmd + `"}`),
			latency: reg.Histogram(`ecstore_proxy_cmd_latency_seconds{cmd="` + cmd + `"}`),
		}
	}
	return pm
}

// begin starts timing one command and returns the completion callback;
// failed means the command was answered ERROR, CLIENT_ERROR or
// SERVER_ERROR.
func (pm *proxyMetrics) begin(cmd string) func(failed bool) {
	cm, ok := pm.cmds[cmd]
	if !ok {
		cm = pm.cmds["other"]
	}
	start := time.Now()
	return func(failed bool) {
		cm.total.Inc()
		if failed {
			cm.errors.Inc()
		}
		cm.latency.Record(time.Since(start))
	}
}

func (pm *proxyMetrics) countReader(r io.Reader) io.Reader {
	pm.connsTotal.Inc()
	return &countingReader{r: r, c: pm.bytesIn}
}

func (pm *proxyMetrics) countWriter(w io.Writer) io.Writer {
	return &countingWriter{w: w, c: pm.bytesOut}
}

type countingReader struct {
	r io.Reader
	c *metrics.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

type countingWriter struct {
	w io.Writer
	c *metrics.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}
