package memproto_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecstore/internal/memproto"
	"ecstore/internal/metrics"
)

// TestProxyMetrics drives a mixed conversation through a handler with
// metrics enabled and checks the per-command counters, the hit/miss
// split, and the byte counters all moved.
func TestProxyMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	b := newFakeBackend()
	script := "set k 0 0 2\r\nhi\r\n" +
		"get k\r\n" +
		"get missing\r\n" +
		"gets k\r\n" +
		"mg k v\r\n" +
		"bogus\r\n" +
		"delete k\r\n" +
		"quit\r\n"
	out := runScript(t, b, script, memproto.WithMetrics(reg))
	if !strings.HasPrefix(out, "STORED") {
		t.Fatalf("conversation start %q", out)
	}
	snap := reg.Snapshot()
	for metric, want := range map[string]int64{
		`ecstore_proxy_cmds_total{cmd="set"}`:         1,
		`ecstore_proxy_cmds_total{cmd="get"}`:         2,
		`ecstore_proxy_cmds_total{cmd="gets"}`:        1,
		`ecstore_proxy_cmds_total{cmd="mg"}`:          1,
		`ecstore_proxy_cmds_total{cmd="delete"}`:      1,
		`ecstore_proxy_cmds_total{cmd="other"}`:       1,
		`ecstore_proxy_cmd_errors_total{cmd="other"}`: 1,
		`ecstore_proxy_get_hits_total`:                3,
		`ecstore_proxy_get_misses_total`:              1,
		`ecstore_proxy_connections_total`:             1,
	} {
		if got := snap.Counter(metric); got != want {
			t.Errorf("%s = %d, want %d", metric, got, want)
		}
	}
	if snap.Counter("ecstore_proxy_bytes_read_total") != int64(len(script)) {
		t.Errorf("bytes_read = %d, want %d",
			snap.Counter("ecstore_proxy_bytes_read_total"), len(script))
	}
	if snap.Counter("ecstore_proxy_bytes_written_total") != int64(len(out)) {
		t.Errorf("bytes_written = %d, want %d",
			snap.Counter("ecstore_proxy_bytes_written_total"), len(out))
	}
	if got := snap.Gauges["ecstore_proxy_connections_active"]; got != 0 {
		t.Errorf("connections_active after close = %d", got)
	}
}

// TestVersion pins the string the `version` command reports.
func TestVersion(t *testing.T) {
	b := newFakeBackend()
	out := runScript(t, b, "version\r\n")
	if out != "VERSION ecstore-memproxy\r\n" {
		t.Fatalf("version = %q", out)
	}
}

func TestServerAddr(t *testing.T) {
	_, dial := startProxy(t)
	c := dial()
	c.send("version\r\n")
	if got := c.line(); !strings.HasPrefix(got, "VERSION") {
		t.Fatal(got)
	}
}

// TestEdgeCases sweeps the odd protocol corners: exptimes in every
// encoding, flush_all variants, touch argument errors, raw values
// written without a flags prefix, and an unreadably long line.
func TestEdgeCases(t *testing.T) {
	b := newFakeBackend()

	// Absolute unix exptime (> 30 days) and negative exptime.
	future := time.Now().Add(time.Hour).Unix()
	out := runScript(t, b,
		"set abs 0 "+itoa(future)+" 1\r\nx\r\n"+
			"set past 0 "+itoa(time.Now().Add(-time.Hour).Unix())+" 1\r\nx\r\n"+
			"set neg 0 -1 1\r\nx\r\n"+
			"touch abs -1\r\n")
	if strings.Count(out, "STORED") != 3 || !strings.Contains(out, "TOUCHED") {
		t.Fatalf("exptime variants: %q", out)
	}

	// flush_all with delay and noreply; then with garbage.
	out = runScript(t, b, "flush_all 30\r\nflush_all 1 noreply\r\nflush_all x\r\nversion\r\n")
	if !strings.HasPrefix(out, "OK\r\nCLIENT_ERROR") {
		t.Fatalf("flush_all variants: %q", out)
	}

	// touch with a bad exptime and bad arg counts.
	out = runScript(t, b, "touch k\r\ntouch k notanum\r\ndelete\r\nincr\r\n")
	if strings.Count(out, "CLIENT_ERROR") != 4 {
		t.Fatalf("arg errors: %q", out)
	}

	// A value stored without the 4-byte flags prefix (as kvcli would
	// write it) reads back whole with flags 0.
	b.store("raw", []byte("ab"))
	out = runScript(t, b, "get raw\r\n")
	if !strings.HasPrefix(out, "VALUE raw 0 2\r\nab\r\n") {
		t.Fatalf("raw value: %q", out)
	}

	// A command line longer than the read buffer is fatal but
	// answered first.
	h := memproto.NewHandler(b)
	var long bytes.Buffer
	err := h.ServeConn(strings.NewReader("get "+strings.Repeat("k", 64<<10)+"\r\n"), &long)
	if err == nil || !strings.Contains(long.String(), "CLIENT_ERROR line too long") {
		t.Fatalf("long line: err=%v out=%q", err, long.String())
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// TestGetRepeatedKeys: a key listed twice in one get is answered once
// and counted as one hit; every listed position of an absent key is a
// miss.
func TestGetRepeatedKeys(t *testing.T) {
	reg := metrics.NewRegistry()
	b := newFakeBackend()
	out := runScript(t, b, "set a 5 0 2\r\nhi\r\nget a b a b\r\ngets a a\r\n", memproto.WithMetrics(reg))
	want := "STORED\r\n" +
		"VALUE a 5 2\r\nhi\r\nEND\r\n" +
		"VALUE a 5 2 1\r\nhi\r\nEND\r\n"
	if out != want {
		t.Fatalf("reply = %q, want %q", out, want)
	}
	snap := reg.Snapshot()
	if hits, misses := snap.Counter("ecstore_proxy_get_hits_total"), snap.Counter("ecstore_proxy_get_misses_total"); hits != 2 || misses != 2 {
		t.Fatalf("hits, misses = %d, %d; want 2, 2", hits, misses)
	}
	if b.getMultiCalls != 2 {
		t.Fatalf("%d GetMulti calls, want one per get", b.getMultiCalls)
	}
}
