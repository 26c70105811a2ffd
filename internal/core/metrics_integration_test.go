package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/wire"
)

// TestMetricsMoveAcrossOps exercises the whole observability layer end
// to end: client-side op/phase/rpc series move across a Set/Get/Delete
// cycle, a degraded read is counted as such, and the server-side
// snapshot fetched over the wire carries dispatch and store counters.
func TestMetricsMoveAcrossOps(t *testing.T) {
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
		OpTimeout:  300 * time.Millisecond,
		MaxRetries: -1,
	})

	value := bytes.Repeat([]byte("m"), 16<<10)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("metrics-%d", i)
		if err := c.Set(key, value); err != nil {
			t.Fatal(err)
		}
		if got, err := c.Get(key); err != nil || !bytes.Equal(got, value) {
			t.Fatalf("Get %s: %v", key, err)
		}
	}
	if err := c.Delete("metrics-0"); err != nil {
		t.Fatal(err)
	}

	snap := c.Metrics().Snapshot()
	wantCounters := map[string]int64{
		`ecstore_client_ops_total{op="set"}`:    3,
		`ecstore_client_ops_total{op="get"}`:    3,
		`ecstore_client_ops_total{op="delete"}`: 1,
		"ecstore_rpc_calls_total":               15, // >= 5 chunks x 3 sets
	}
	for name, min := range wantCounters {
		if got := snap.Counter(name); got < min {
			t.Errorf("%s = %d, want >= %d", name, got, min)
		}
	}
	for _, name := range []string{
		`ecstore_client_op_seconds{op="set"}`,
		`ecstore_client_op_seconds{op="get"}`,
		`ecstore_client_phase_seconds{op="set",phase="encode-decode"}`,
		`ecstore_client_phase_seconds{op="get",phase="wait-response"}`,
		"ecstore_rpc_call_seconds",
	} {
		if h, ok := snap.Histograms[name]; !ok || h.Count == 0 {
			t.Errorf("histogram %s empty (present=%v)", name, ok)
		}
	}
	if snap.Counter("ecstore_client_degraded_reads_total") != 0 {
		t.Error("degraded reads counted on a healthy cluster")
	}
	if snap.Counter("ecstore_client_skipped_holder_reads_total") != 0 {
		t.Error("skipped holders counted on a healthy cluster")
	}

	// Single-key and bulk calls share one executor, but the bulk series
	// count M* calls only: the Sets/Gets/Delete above moved neither
	// counter, an MGet moves both — and, going through the same executor,
	// reports the Figure 9 phases under its own label.
	for _, name := range []string{"ecstore_client_bulk_frames_total", "ecstore_client_bulk_subops_total"} {
		if got := snap.Counter(name); got != 0 {
			t.Errorf("%s = %d after single-key ops only, want 0", name, got)
		}
	}
	if got, err := c.MGet([]string{"metrics-1", "metrics-2"}); err != nil || len(got) != 2 {
		t.Fatalf("MGet: %d found, %v", len(got), err)
	}
	snap = c.Metrics().Snapshot()
	if frames, subops := snap.Counter("ecstore_client_bulk_frames_total"), snap.Counter("ecstore_client_bulk_subops_total"); frames < 1 || subops != 6 {
		t.Errorf("2-key MGet: bulk frames = %d, sub-ops = %d; want >= 1 and 6 (K=3 chunks per key)", frames, subops)
	}
	if h := snap.Histograms[`ecstore_client_phase_seconds{op="mget",phase="wait-response"}`]; h.Count == 0 {
		t.Error("MGet recorded no wait-response phase")
	}

	// Kill one chunk holder: the next read reconstructs from parity and
	// must show up in the degraded-read and rebuilt-chunk counters.
	dead := cl.Addrs()[0]
	netem.Cut(dead)
	if got, err := c.Get("metrics-1"); err != nil || !bytes.Equal(got, value) {
		t.Fatalf("degraded Get: %v", err)
	}
	netem.Restore(dead)

	snap = c.Metrics().Snapshot()
	if got := snap.Counter("ecstore_client_degraded_reads_total"); got < 1 {
		t.Errorf("degraded_reads_total = %d after a read past a dead holder, want >= 1", got)
	}
	if got := snap.Counter("ecstore_client_chunks_rebuilt_total"); got < 1 {
		t.Errorf("chunks_rebuilt_total = %d after a degraded read, want >= 1", got)
	}

	// Lose a data chunk of another key: its holder misses on every read,
	// the client skips it after three, and the fourth read's first round
	// asks a parity chunk in its place.
	lost := chunkHolders(cl, "metrics-2", 5)[0]
	cl.Server(lost).Store().Delete(wire.ChunkKey("metrics-2", 0))
	for read := 1; read <= 4; read++ {
		if got, err := c.Get("metrics-2"); err != nil || !bytes.Equal(got, value) {
			t.Fatalf("Get %d with a data chunk lost: %v", read, err)
		}
	}
	if got := c.Metrics().Snapshot().Counter("ecstore_client_skipped_holder_reads_total"); got < 1 {
		t.Errorf("skipped_holder_reads_total = %d after the fourth read with a data chunk lost, want >= 1", got)
	}

	// The background operations keep the same ledger as the foreground:
	// each call counts under its own op label and records its rounds'
	// phases there. The repair finds the stripe healthy now the holder is
	// back.
	if _, err := c.Repair("metrics-1"); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if _, err := c.Repair("metrics-absent"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Repair of an absent key: %v", err)
	}
	snap = c.Metrics().Snapshot()
	for op, want := range map[string][2]int64{"repair": {2, 1}} {
		if got := snap.Counter(fmt.Sprintf("ecstore_client_ops_total{op=%q}", op)); got != want[0] {
			t.Errorf("ops_total{op=%q} = %d, want %d", op, got, want[0])
		}
		if got := snap.Counter(fmt.Sprintf("ecstore_client_op_errors_total{op=%q}", op)); got != want[1] {
			t.Errorf("op_errors_total{op=%q} = %d, want %d", op, got, want[1])
		}
		if h := snap.Histograms[fmt.Sprintf("ecstore_client_op_seconds{op=%q}", op)]; h.Count != uint64(want[0]) {
			t.Errorf("op_seconds{op=%q} has %d samples, want %d", op, h.Count, want[0])
		}
		if h := snap.Histograms[fmt.Sprintf("ecstore_client_phase_seconds{op=%q,phase=\"wait-response\"}", op)]; h.Count == 0 {
			t.Errorf("%s recorded no wait-response phase", op)
		}
	}

	// Server-side snapshot over the wire: dispatch and store counters
	// of a live chunk holder must have moved.
	srv, err := c.ServerMetrics(cl.Addrs()[1])
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Counter(`ecstore_server_ops_total{op="set-chunk"}`); got < 1 {
		t.Errorf(`server ops_total{op="set-chunk"} = %d, want >= 1`, got)
	}
	if got, ok := srv.Gauges["ecstore_store_sets_total"]; !ok || got < 1 {
		t.Errorf("server store sets_total = %d (present=%v), want >= 1", got, ok)
	}
	if h, ok := srv.Histograms["ecstore_server_handle_seconds"]; !ok || h.Count == 0 {
		t.Error("server handle-latency histogram empty")
	}

	// The flat legacy shape must still decode alongside the metrics.
	st, err := c.ServerStats(cl.Addrs()[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Sets < 1 {
		t.Errorf("legacy ServerStats.Sets = %d, want >= 1", st.Sets)
	}
}
