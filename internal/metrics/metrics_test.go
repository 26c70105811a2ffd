package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ecstore_test_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if reg.Counter("ecstore_test_total") != c {
		t.Fatal("same name must return the same counter")
	}

	g := reg.Gauge("ecstore_test_depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}

	reg.Histogram("ecstore_test_seconds").Record(10 * time.Millisecond)
	reg.Histogram("ecstore_test_seconds").Record(30 * time.Millisecond)
	if got := reg.Histogram("ecstore_test_seconds").Count(); got != 2 {
		t.Fatalf("histogram count = %d, want 2", got)
	}
}

func TestNilRegistryDiscards(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(3)
	reg.Histogram("z").Record(time.Second)
	reg.RegisterFunc("f", func() int64 { return 1 })
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`ecstore_ops_total{op="set"}`).Add(3)
	reg.Gauge("ecstore_depth").Set(2)
	reg.RegisterFunc("ecstore_items", func() int64 { return 42 })
	reg.Histogram("ecstore_lat_seconds").Record(time.Millisecond)

	snap := reg.Snapshot()
	if got := snap.Counter(`ecstore_ops_total{op="set"}`); got != 3 {
		t.Fatalf("snapshot counter = %d, want 3", got)
	}
	if snap.Gauges["ecstore_depth"] != 2 {
		t.Fatalf("snapshot gauge = %d, want 2", snap.Gauges["ecstore_depth"])
	}
	if snap.Gauges["ecstore_items"] != 42 {
		t.Fatal("func gauge not evaluated into snapshot")
	}
	if snap.Histograms["ecstore_lat_seconds"].Count != 1 {
		t.Fatal("histogram missing from snapshot")
	}
	// Snapshots must round-trip through JSON (the OpStats payload).
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter(`ecstore_ops_total{op="set"}`) != 3 {
		t.Fatal("snapshot did not survive a JSON round trip")
	}
	if !strings.Contains(snap.String(), "ecstore_depth 2") {
		t.Fatalf("String() missing gauge line:\n%s", snap.String())
	}
}

// promLine matches one valid line of text exposition format: a TYPE
// comment or `name{labels} value`. The CI metrics-endpoint job applies
// the same shape check to a live server's /metrics output.
var promLine = regexp.MustCompile(
	`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)|` +
		`[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? ` +
		`[-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?)$`)

// validatePrometheus fails the test on any malformed line and returns
// the lines for further assertions.
func validatePrometheus(t *testing.T, text string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for _, line := range lines {
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
	return lines
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`ecstore_ops_total{op="set"}`).Add(3)
	reg.Counter(`ecstore_ops_total{op="get"}`).Add(5)
	reg.Gauge("ecstore_queue_depth").Set(1)
	reg.RegisterFunc("ecstore_store_items", func() int64 { return 9 })
	reg.Histogram(`ecstore_phase_seconds{phase="encode"}`).Record(2 * time.Millisecond)
	reg.Histogram(`ecstore_phase_seconds{phase="encode"}`).Record(4 * time.Millisecond)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	lines := validatePrometheus(t, text)

	want := []string{
		"# TYPE ecstore_ops_total counter",
		`ecstore_ops_total{op="get"} 5`,
		`ecstore_ops_total{op="set"} 3`,
		"# TYPE ecstore_queue_depth gauge",
		"ecstore_queue_depth 1",
		"# TYPE ecstore_store_items gauge",
		"ecstore_store_items 9",
		"# TYPE ecstore_phase_seconds summary",
		`ecstore_phase_seconds{phase="encode",quantile="0.5"}`,
		`ecstore_phase_seconds_count{phase="encode"} 2`,
		`ecstore_phase_seconds_sum{phase="encode"} 0.006`,
	}
	for _, w := range want {
		found := false
		for _, line := range lines {
			if strings.HasPrefix(line, w) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("missing %q in output:\n%s", w, text)
		}
	}
	// One TYPE line per metric family, even with several label sets.
	if got := strings.Count(text, "# TYPE ecstore_ops_total "); got != 1 {
		t.Fatalf("family ecstore_ops_total declared %d times, want 1", got)
	}
	// Deterministic output: two renders must match byte for byte.
	var buf2 bytes.Buffer
	if err := reg.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("rendering is not deterministic")
	}
}

func TestServeHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ecstore_http_test_total").Inc()
	closeFn, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer closeFn()
	// Serve hides the chosen port; use the handler directly for the
	// content assertion and the listener only for lifecycle coverage.
	srv := Handler(reg)
	req, _ := http.NewRequest("GET", "/metrics", nil)
	rec := &recorder{header: http.Header{}}
	srv.ServeHTTP(rec, req)
	if !strings.Contains(rec.body.String(), "ecstore_http_test_total 1") {
		t.Fatalf("handler output missing counter:\n%s", rec.body.String())
	}
	if ct := rec.header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	validatePrometheus(t, rec.body.String())
}

// recorder is a minimal http.ResponseWriter for handler tests.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorder) WriteHeader(code int)        { r.code = code }

func TestConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				reg.Counter("ecstore_conc_total").Inc()
				reg.Counter(fmt.Sprintf(`ecstore_conc_by{worker="%d"}`, i)).Inc()
				reg.Gauge("ecstore_conc_depth").Add(1)
				reg.Histogram("ecstore_conc_seconds").Record(time.Microsecond)
				reg.Gauge("ecstore_conc_depth").Add(-1)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = reg.Snapshot()
			_ = reg.WritePrometheus(io.Discard)
		}
	}()
	wg.Wait()
	<-done
	snap := reg.Snapshot()
	if snap.Counter("ecstore_conc_total") != 8*500 {
		t.Fatalf("lost increments: %d", snap.Counter("ecstore_conc_total"))
	}
	if snap.Gauges["ecstore_conc_depth"] != 0 {
		t.Fatalf("gauge should settle at 0, got %d", snap.Gauges["ecstore_conc_depth"])
	}
}
