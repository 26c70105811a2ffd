package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/erasure"
	"ecstore/internal/metrics"
	"ecstore/internal/stats"
	"ecstore/internal/store"
)

// metricDef is one row of the metric catalogue. BENCHMARK.json is
// generated from these tables (-manifest) and a test keeps the two
// equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	source string  // span, registry, probe or process: where it is read
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the store sees. Bounds are the share of
// the parent's median a metric may worsen by. Each is three times the
// widest run-to-run spread (quartile distance over median, ten seeds)
// measured on any workload, or the contract's cap of 0.25 if less: the
// four timing metrics spread up to 10 % on proxy-mget and 7 % on
// burst-1m on this shared two-core host (README, Noise), the counts and
// ratios under 1.2 %.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25, "process"},
	{"ops_per_s", "1/s", higher, 0.25, "process"},
	{"get_p50_us", "us", lower, 0.25, "process"},
	{"set_p50_us", "us", lower, 0.25, "process"},
	{"cpu_us_per_op", "us", lower, 0.25, "process"},
	{"allocs_per_op", "count", lower, 0.03, "process"},
	{"stored_bytes_per_user_byte", "ratio", lower, 0.02, "registry"},
	{"wire_bytes_per_user_byte", "ratio", lower, 0.05, "span"},
	{"peak_rss_mb", "MB", lower, 0.10, "process"},
}

// perLayer names are <module>.<metric>; the module is the layer.
var perLayer = []metricDef{
	{"memproto.self_us_per_cmd", "us", lower, 0, "span"},

	{"nearcache.hit_ratio", "ratio", higher, 0, "registry"},
	{"nearcache.evictions_per_kop", "count", lower, 0, "registry"},
	{"nearcache.coalesced_per_kop", "count", higher, 0, "registry"},
	{"nearcache.get_hit_ns", "ns", lower, 0, "probe"},
	{"nearcache.put_ns", "ns", lower, 0, "probe"},

	{"core.get_p99_us", "us", lower, 0, "registry"},
	{"core.set_p99_us", "us", lower, 0, "registry"},
	{"core.get_code_us", "us", lower, 0, "registry"},
	{"core.get_wait_us", "us", lower, 0, "registry"},
	{"core.set_code_us", "us", lower, 0, "registry"},
	{"core.set_request_us", "us", lower, 0, "registry"},
	{"core.set_wait_us", "us", lower, 0, "registry"},
	{"core.self_us_per_op", "us", lower, 0, "span"},
	{"core.rpcs_per_op", "count", lower, 0, "registry"},
	{"core.degraded_read_share", "ratio", lower, 0, "registry"},
	{"core.chunks_rebuilt_per_kop", "count", lower, 0, "registry"},
	{"core.bulk_frames_per_mget", "count", lower, 0, "registry"},
	{"core.bulk_subops_per_frame", "count", higher, 0, "registry"},
	{"core.delta_write_share", "ratio", higher, 0, "registry"},
	{"core.delta_fallback_share", "ratio", lower, 0, "registry"},
	{"core.retries_per_kop", "count", lower, 0, "registry"},
	{"core.failovers_per_kop", "count", lower, 0, "registry"},
	{"core.stripe_unwinds_per_kop", "count", lower, 0, "registry"},

	{"erasure.encode_mb_per_s_1k", "MB/s", higher, 0, "probe"},
	{"erasure.encode_mb_per_s_64k", "MB/s", higher, 0, "probe"},
	{"erasure.encode_mb_per_s_1m", "MB/s", higher, 0, "probe"},
	{"erasure.reconstruct_mb_per_s_1k", "MB/s", higher, 0, "probe"},
	{"erasure.reconstruct_mb_per_s_64k", "MB/s", higher, 0, "probe"},
	{"erasure.reconstruct_mb_per_s_1m", "MB/s", higher, 0, "probe"},
	{"erasure.join_mb_per_s_1k", "MB/s", higher, 0, "probe"},
	{"erasure.join_mb_per_s_64k", "MB/s", higher, 0, "probe"},
	{"erasure.join_mb_per_s_1m", "MB/s", higher, 0, "probe"},
	{"erasure.encode_allocs_1k", "count", lower, 0, "probe"},
	{"erasure.encode_allocs_64k", "count", lower, 0, "probe"},
	{"erasure.encode_allocs_1m", "count", lower, 0, "probe"},
	{"erasure.share_of_set_pct", "%", lower, 0, "registry"},

	{"rpc.call_p50_us", "us", lower, 0, "registry"},
	{"rpc.call_p99_us", "us", lower, 0, "registry"},
	{"rpc.calls_per_op", "count", lower, 0, "registry"},
	{"rpc.ping_roundtrip_us", "us", lower, 0, "probe"},
	{"rpc.timeouts", "count", lower, 0, "registry"},
	{"rpc.failfast", "count", lower, 0, "registry"},
	{"rpc.suspect_transitions", "count", lower, 0, "registry"},

	{"wire.codec_ns_per_frame_1k", "ns", lower, 0, "probe"},
	{"wire.codec_ns_per_frame_350k", "ns", lower, 0, "probe"},
	{"wire.overhead_bytes_per_frame", "B", lower, 0, "probe"},

	{"transport.bytes_per_op", "B", lower, 0, "span"},
	{"transport.writes_per_op", "count", lower, 0, "span"},
	{"transport.bytes_per_write", "B", higher, 0, "span"},
	{"transport.write_us_per_op", "us", lower, 0, "span"},

	{"server.handle_p50_us", "us", lower, 0, "registry"},
	{"server.handle_p99_us", "us", lower, 0, "registry"},
	{"server.residence_us_per_frame", "us", lower, 0, "span"},
	{"server.queue_us_per_frame", "us", lower, 0, "span"},
	{"server.frames_per_op", "count", lower, 0, "registry"},
	{"server.load_imbalance", "ratio", lower, 0, "registry"},

	{"store.overhead_bytes_per_item", "B", lower, 0, "registry"},
	{"store.evictions_per_kop", "count", lower, 0, "registry"},
	{"store.hit_ratio", "ratio", higher, 0, "registry"},
	{"store.set_ns", "ns", lower, 0, "probe"},
	{"store.get_ns", "ns", lower, 0, "probe"},

	{"bufpool.hit_ratio", "ratio", higher, 0, "registry"},

	{"process.alloc_bytes_per_op", "B", lower, 0, "process"},
	{"process.gc_cycles_per_s", "1/s", lower, 0, "process"},
	{"process.gc_pause_ms", "ms", lower, 0, "process"},
	{"process.goroutines_peak", "count", lower, 0, "process"},
	{"trace.overhead_pct", "%", lower, 0, "process"},
}

// snapshot is everything read from outside the program at one instant:
// the public registries and stats, the fabric counters, and the
// process's own accounting.
type snapshot struct {
	at         time.Time
	ops        int64
	userBytes  int64
	client     metrics.Snapshot
	servers    []metrics.Snapshot
	stores     store.Stats // summed over servers
	pool       bufpool.Stats
	netBytes   int64
	netWrites  int64
	mem        runtime.MemStats
	cpu        time.Duration
	goroutines int
}

func takeSnapshot(st *stack, rec *recorder) *snapshot {
	s := &snapshot{
		at:         time.Now(),
		ops:        rec.ops,
		userBytes:  rec.userBytes,
		client:     st.client.Metrics().Snapshot(),
		pool:       erasure.DefaultPool.Stats(),
		netBytes:   st.net.bytes.Load(),
		netWrites:  st.net.wr.Load(),
		cpu:        cpuTime(),
		goroutines: runtime.NumGoroutine(),
	}
	for i := 0; i < numServers; i++ {
		srv := st.cluster.Server(i)
		s.servers = append(s.servers, srv.Metrics().Snapshot())
		ss := srv.Store().Stats()
		s.stores.Gets += ss.Gets
		s.stores.Hits += ss.Hits
		s.stores.Evictions += ss.Evictions
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// stealJiffies reads the host's stolen and total CPU time from
// /proc/stat: time the hypervisor ran someone else while this VM wanted
// to run. It is a diagnostic for a noisy round, not a metric.
func stealJiffies() (steal, total int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	for i, fv := range fields[1:] {
		v, _ := strconv.ParseInt(fv, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// delta reads counters and histograms as differences between two
// snapshots of the same registries.
type delta struct{ a, b *snapshot }

func (d delta) client(name string) float64 {
	return float64(d.b.client.Counters[name] - d.a.client.Counters[name])
}

// servers sums a counter's growth over all servers.
func (d delta) servers(name string) float64 {
	var n int64
	for i := range d.b.servers {
		n += d.b.servers[i].Counters[name] - d.a.servers[i].Counters[name]
	}
	return float64(n)
}

// meanUs is the mean of the samples a histogram gained, in µs.
func meanUs(a, b stats.Summary) float64 {
	return ratio(us(b.Sum-a.Sum), float64(b.Count-a.Count))
}

func (d delta) clientMeanUs(name string) float64 {
	return meanUs(d.a.client.Histograms[name], d.b.client.Histograms[name])
}

func (d delta) ops() float64 { return float64(d.b.ops - d.a.ops) }

const (
	hOpSeconds    = `ecstore_client_op_seconds{op=%q}`
	hPhaseSeconds = `ecstore_client_phase_seconds{op=%q,phase=%q}`
	cOpsTotal     = `ecstore_client_ops_total{op=%q}`
	hServerHandle = "ecstore_server_handle_seconds"
	hRPCCall      = "ecstore_rpc_call_seconds"
	cRPCCalls     = "ecstore_rpc_calls_total"
	phaseCode     = "encode-decode"
	phaseWait     = "wait-response"
	phaseRequest  = "request"
)

// derive turns the three snapshots of a timed phase into metrics: s0 at
// its start, s1 at the end of the count window, s2 at its end. Counts
// that must repeat exactly for a seed use [s0, s1]; times use [s0, s2].
// lt is nil on an untraced round, and the span-derived metrics are then
// left out.
func derive(st *stack, rec *recorder, s0, s1, s2 *snapshot, lt *[numLayers]layerTimes) map[string]float64 {
	m := map[string]float64{}
	cw := delta{s0, s1} // count window
	tp := delta{s0, s2} // whole timed phase
	secs := s2.at.Sub(s0.at).Seconds()
	ops := tp.ops()

	// End to end (setup_s, stored_bytes_per_user_byte and peak_rss_mb
	// are added by the caller, which saw set-up).
	m["ops_per_s"] = ops / secs
	m["get_p50_us"] = percentileNs(rec.getNs, 50)
	m["set_p50_us"] = percentileNs(rec.setNs, 50)
	m["cpu_us_per_op"] = us(s2.cpu-s0.cpu) / ops
	m["allocs_per_op"] = float64(s2.mem.Mallocs-s0.mem.Mallocs) / ops
	m["wire_bytes_per_user_byte"] = ratio(float64(s2.netBytes-s0.netBytes), float64(s2.userBytes-s0.userBytes))

	// nearcache
	hits := cw.client("ecstore_client_nearcache_hits_total")
	m["nearcache.hit_ratio"] = ratio(hits, hits+cw.client("ecstore_client_nearcache_misses_total"))
	m["nearcache.evictions_per_kop"] = 1e3 * cw.client("ecstore_client_nearcache_evictions_total") / cw.ops()
	m["nearcache.coalesced_per_kop"] = 1e3 * cw.client("ecstore_client_coalesced_reads_total") / cw.ops()

	// core. The proxy reads through MGet, which has its own op label and
	// records no phases yet; its phase rows are 0 until it does.
	readOp := "get"
	if st.proxy != nil {
		readOp = "mget"
	}
	m["core.get_p99_us"] = us(s2.client.Histograms[fmt.Sprintf(hOpSeconds, readOp)].P99)
	m["core.set_p99_us"] = us(s2.client.Histograms[fmt.Sprintf(hOpSeconds, "set")].P99)
	m["core.get_code_us"] = tp.clientMeanUs(fmt.Sprintf(hPhaseSeconds, "get", phaseCode))
	m["core.get_wait_us"] = tp.clientMeanUs(fmt.Sprintf(hPhaseSeconds, "get", phaseWait))
	m["core.set_code_us"] = tp.clientMeanUs(fmt.Sprintf(hPhaseSeconds, "set", phaseCode))
	m["core.set_request_us"] = tp.clientMeanUs(fmt.Sprintf(hPhaseSeconds, "set", phaseRequest))
	m["core.set_wait_us"] = tp.clientMeanUs(fmt.Sprintf(hPhaseSeconds, "set", phaseWait))
	reads := cw.client(fmt.Sprintf(cOpsTotal, readOp))
	sets := cw.client(fmt.Sprintf(cOpsTotal, "set"))
	m["core.rpcs_per_op"] = cw.client(cRPCCalls) / cw.ops()
	m["core.degraded_read_share"] = ratio(cw.client("ecstore_client_degraded_reads_total"), reads)
	m["core.chunks_rebuilt_per_kop"] = 1e3 * cw.client("ecstore_client_chunks_rebuilt_total") / cw.ops()
	frames := cw.client("ecstore_client_bulk_frames_total")
	m["core.bulk_frames_per_mget"] = ratio(frames, cw.client(fmt.Sprintf(cOpsTotal, "mget")))
	m["core.bulk_subops_per_frame"] = ratio(cw.client("ecstore_client_bulk_subops_total"), frames)
	m["core.delta_write_share"] = ratio(cw.client("ecstore_client_delta_writes_total"), sets)
	m["core.delta_fallback_share"] = ratio(cw.client("ecstore_client_delta_fallbacks_total"), sets)
	m["core.retries_per_kop"] = 1e3 * tp.client("ecstore_client_retries_total") / ops
	m["core.failovers_per_kop"] = 1e3 * tp.client("ecstore_client_failovers_total") / ops
	m["core.stripe_unwinds_per_kop"] = 1e3 * tp.client("ecstore_client_stripe_unwinds_total") / ops

	// erasure: the codec's share of a Set, from the Figure 9 phases.
	m["erasure.share_of_set_pct"] = 100 * ratio(m["core.set_code_us"], tp.clientMeanUs(fmt.Sprintf(hOpSeconds, "set")))

	// rpc: the client's pool and the servers' peer pools.
	call := s2.client.Histograms[hRPCCall]
	m["rpc.call_p50_us"] = us(call.P50)
	m["rpc.call_p99_us"] = us(call.P99)
	m["rpc.calls_per_op"] = (cw.client(cRPCCalls) + cw.servers(cRPCCalls)) / cw.ops()
	m["rpc.timeouts"] = tp.client("ecstore_rpc_timeouts_total") + tp.servers("ecstore_rpc_timeouts_total")
	m["rpc.failfast"] = tp.client("ecstore_rpc_failfast_total") + tp.servers("ecstore_rpc_failfast_total")
	m["rpc.suspect_transitions"] = tp.client("ecstore_rpc_suspect_transitions_total") + tp.servers("ecstore_rpc_suspect_transitions_total")

	// transport
	m["transport.bytes_per_op"] = float64(s1.netBytes-s0.netBytes) / cw.ops()
	m["transport.writes_per_op"] = float64(s1.netWrites-s0.netWrites) / cw.ops()
	m["transport.bytes_per_write"] = ratio(float64(s1.netBytes-s0.netBytes), float64(s1.netWrites-s0.netWrites))

	// server. The handle histogram cannot be read as a difference, so its
	// percentiles cover the servers' whole life, preload included; the
	// mean used for queue time is of the timed phase only.
	merged := stats.NewHistogram()
	var handled, busiest float64 // frames in the count window
	var handle stats.Summary     // frames and their handle time in the whole phase
	for i := 0; i < numServers; i++ {
		merged.Merge(st.cluster.Server(i).Metrics().Histogram(hServerHandle))
		h0, h1, h2 := s0.servers[i].Histograms[hServerHandle], s1.servers[i].Histograms[hServerHandle], s2.servers[i].Histograms[hServerHandle]
		n := float64(h1.Count - h0.Count)
		handled += n
		busiest = math.Max(busiest, n)
		handle.Count += h2.Count - h0.Count
		handle.Sum += h2.Sum - h0.Sum
	}
	m["server.handle_p50_us"] = us(merged.Percentile(50))
	m["server.handle_p99_us"] = us(merged.Percentile(99))
	m["server.frames_per_op"] = handled / cw.ops()
	m["server.load_imbalance"] = ratio(busiest, handled/numServers)

	// store
	m["store.evictions_per_kop"] = 1e3 * float64(s1.stores.Evictions-s0.stores.Evictions) / cw.ops()
	m["store.hit_ratio"] = ratio(float64(s1.stores.Hits-s0.stores.Hits), float64(s1.stores.Gets-s0.stores.Gets))

	// bufpool
	m["bufpool.hit_ratio"] = ratio(float64(s1.pool.Hits-s0.pool.Hits), float64(s1.pool.Gets-s0.pool.Gets))

	// process
	m["process.alloc_bytes_per_op"] = float64(s2.mem.TotalAlloc-s0.mem.TotalAlloc) / ops
	m["process.gc_cycles_per_s"] = float64(s2.mem.NumGC-s0.mem.NumGC) / secs
	m["process.gc_pause_ms"] = float64(s2.mem.PauseTotalNs-s0.mem.PauseTotalNs) / 1e6
	m["process.goroutines_peak"] = float64(max(s0.goroutines, s1.goroutines, s2.goroutines))

	if lt == nil {
		return m
	}
	// Spans. On the native workloads a call span is the call into core;
	// behind the proxy it is the memcached command and core is the
	// backend span inside it.
	coreLayer := layerCall
	m["memproto.self_us_per_cmd"] = 0
	if st.proxy != nil {
		coreLayer = layerBackend
		m["memproto.self_us_per_cmd"] = float64(lt[layerCall].SelfNs) / 1e3 / ops
	}
	m["core.self_us_per_op"] = float64(lt[coreLayer].SelfNs) / 1e3 / ops
	m["transport.write_us_per_op"] = float64(lt[layerWrite].TotalNs) / 1e3 / ops
	m["server.residence_us_per_frame"] = ratio(float64(lt[layerServer].TotalNs)/1e3, float64(lt[layerServer].Spans))
	m["server.queue_us_per_frame"] = m["server.residence_us_per_frame"] - meanUs(stats.Summary{}, handle)
	return m
}
