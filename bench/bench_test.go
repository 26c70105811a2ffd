package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"ecstore/internal/transport"
)

func TestValuesAreAFunctionOfSeedKeyAndVersion(t *testing.T) {
	a, b, other := newValueGen(7), newValueGen(7), newValueGen(8)
	if a.key("y", 3) != b.key("y", 3) || a.key("y", 3) == other.key("y", 3) || a.key("y", 3) == a.key("y", 4) {
		t.Fatal("keys must depend on seed and index and on nothing else")
	}
	key := a.key("y", 3)
	size := a.size(key, 1024)
	if size != b.size(key, 1024) || size < 992 || size > 1056 {
		t.Fatalf("size %d: want the same for equal seeds, within 1/32 of nominal", size)
	}
	v1 := a.make(key, 1, size)
	if !bytes.Equal(v1, b.make(key, 1, size)) {
		t.Fatal("equal seed, key and version must give equal bytes")
	}
	if bytes.Equal(v1, a.make(key, 2, size)) || bytes.Equal(v1[valueHeaderLen:], other.make(key, 1, size)[valueHeaderLen:]) {
		t.Fatal("another version or seed must give other bytes")
	}
	if err := a.check(key, 1, v1); err != nil {
		t.Fatalf("own value rejected: %v", err)
	}

	torn := append([]byte(nil), v1...)
	copy(torn[size/2:], a.make(key, 2, size)[size/2:])
	flipped := append([]byte(nil), v1...)
	flipped[size-1] ^= 1
	for name, bad := range map[string][]byte{
		"stale version": a.make(key, 2, size),
		"other key":     a.make(a.key("y", 4), 1, size),
		"other seed":    other.make(key, 1, size),
		"truncated":     v1[:size-1],
		"torn":          torn,
		"bit flip":      flipped,
		"missing":       nil,
	} {
		if a.check(key, 1, bad) == nil {
			t.Errorf("%s value passed verification", name)
		}
	}
}

// drawOps renders the first n units of a workload's stream.
func drawOps(sp *spec, seed int64, n int) []op {
	w := sp.build(sp, nil, newValueGen(seed))
	rng := rand.New(rand.NewSource(seed ^ timedSalt))
	ops := make([]op, n)
	for i := range ops {
		o := w.next(rng)
		o.keys = append([]int(nil), o.keys...)
		ops[i] = o
	}
	return ops
}

func TestOpStreamsRepeatForASeed(t *testing.T) {
	for _, sp := range specs {
		a, b, c := drawOps(sp, 1, 500), drawOps(sp, 1, 500), drawOps(sp, 2, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different op streams", sp.name)
		}
		// burst-1m's stream is the same for every seed by design: fresh
		// keys in order; its keys and bytes carry the seed.
		if sp.name != "burst-1m" && reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same op stream", sp.name)
		}
	}
}

func TestProxyMultiGetsHaveDistinctKeys(t *testing.T) {
	for _, o := range drawOps(specByName("proxy-mget"), 1, 2000) {
		if o.kind != opMGet {
			continue
		}
		seen := map[int]bool{}
		for _, k := range o.keys {
			if seen[k] {
				t.Fatalf("multi-get repeats key %d: %v", k, o.keys)
			}
			seen[k] = true
		}
		if len(o.keys) != mgetKeys {
			t.Fatalf("multi-get of %d keys, want %d", len(o.keys), mgetKeys)
		}
	}
}

func TestDegradedReadsAndWritesAreDisjoint(t *testing.T) {
	sp := specByName("degraded-64k")
	sets := 0
	for _, o := range drawOps(sp, 1, 20000) {
		switch {
		case o.kind == opGet && o.key >= sp.records:
			t.Fatalf("read of write-ring key %d: reads would see healed stripes", o.key)
		case o.kind == opSet && (o.key < sp.records || o.key >= sp.records+degradedRing):
			t.Fatalf("write to read key %d: it would heal", o.key)
		case o.kind == opSet:
			sets++
		}
	}
	if sets < 1500 || sets > 2500 {
		t.Fatalf("%d sets in 20000 ops, want about 10%%", sets)
	}
	w := sp.build(sp, nil, newValueGen(1)).(*kvWorkload)
	names := map[string]bool{}
	for _, k := range w.keys {
		if names[k] {
			t.Fatalf("key %s appears twice in the key table", k)
		}
		names[k] = true
	}
}

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentileNs(nil, 50)) {
		t.Error("empty input must give NaN, not a number that looks measured")
	}
	ns := make([]int64, 100)
	for i := range ns {
		ns[i] = int64(100-i) * 1000 // 100µs .. 1µs, unsorted
	}
	if p50, p99 := percentileNs(ns, 50), percentileNs(ns, 99); p50 != 50 || p99 != 99 {
		t.Errorf("p50=%v p99=%v, want 50 and 99", p50, p99)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := iqrSpread(xs); got != 1 {
		t.Errorf("iqrSpread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if !sameTo3(0.60012, 0.60041) || sameTo3(0.600, 0.604) {
		t.Error("sameTo3 must accept a difference in the fourth digit and reject one in the third")
	}
}

func TestSelfTimeOnAHandBuiltTree(t *testing.T) {
	// One proxy command: the call [0,100] holds a backend call [10,90],
	// which holds two overlapping server residences [20,40] and [30,60]
	// and two writes, one inside the backend span and one outside any.
	spans := []span{
		{layerWrite, 12, 16},
		{layerServer, 30, 60},
		{layerCall, 0, 100},
		{layerBackend, 10, 90},
		{layerServer, 20, 40},
		{layerWrite, 200, 205},
		// A second, childless call.
		{layerCall, 300, 330},
	}
	lt := selfTimes(spans)
	want := [numLayers]layerTimes{
		layerCall:    {Spans: 2, TotalNs: 130, SelfNs: 20 + 30}, // 100 - 80 covered by backend
		layerBackend: {Spans: 1, TotalNs: 80, SelfNs: 80 - 4 - 40},
		layerWrite:   {Spans: 2, TotalNs: 9, SelfNs: 9},
		layerServer:  {Spans: 2, TotalNs: 50, SelfNs: 50},
	}
	if lt != want {
		t.Fatalf("selfTimes =\n%+v\nwant\n%+v", lt, want)
	}
}

func TestCountNetCountsAKnownExchange(t *testing.T) {
	net := &countNet{inner: transport.NewInproc(transport.Shape{})}
	ln, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 10)
		for n := 0; n < 10; {
			m, err := c.Read(buf[n:])
			if err != nil {
				done <- err
				return
			}
			n += m
		}
		_, err = c.Write([]byte("seven b"))
		done <- err
	}()
	c, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ten bytes!")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, writes := net.bytes.Load(), net.wr.Load(); got != 17 || writes != 2 {
		t.Fatalf("counted %d bytes in %d writes, want 17 in 2", got, writes)
	}
}

func TestCountNetStampsResidenceWhenTraced(t *testing.T) {
	log := newSpanLog()
	log.on.Store(true)
	net := &countNet{inner: transport.NewInproc(transport.Shape{}), log: log}
	ln, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		if _, err := c.Read(make([]byte, 4)); err != nil {
			done <- err
			return
		}
		time.Sleep(2 * time.Millisecond) // the server "handles" the frame
		_, err = c.Write([]byte("pong"))
		done <- err
	}()
	c, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	lt := selfTimes(log.spans)
	if lt[layerWrite].Spans != 2 || lt[layerServer].Spans != 1 {
		t.Fatalf("spans: %+v, want two writes and one residence", lt)
	}
	if res := time.Duration(lt[layerServer].TotalNs); res < 2*time.Millisecond || res > time.Second {
		t.Fatalf("residence %v, want at least the 2ms the server held the frame", res)
	}
}

// TestRoundsRunEndToEnd drives every workload through a whole round —
// set-up, warm-up, timed phase, verification, metric derivation — at a
// size that takes a fraction of a second.
func TestRoundsRunEndToEnd(t *testing.T) {
	for _, full := range specs {
		small := *full
		small.records = min(full.records, 256)
		small.warmOps, small.countOps = 64, 64
		for _, traced := range []bool{false, true} {
			res, err := runRound(&small, 1, 0, 300*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", small.name, traced, err)
			}
			if res.Failed != 0 || res.Ops == 0 {
				t.Errorf("%s traced=%v: ops=%d failed=%d first_error=%q",
					small.name, traced, res.Ops, res.Failed, res.FirstError)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("%s traced=%v: end-to-end metric %s = %v", small.name, traced, d.Name, v)
				}
			}
			if _, ok := res.Metrics["core.self_us_per_op"]; ok != traced {
				t.Errorf("%s: span metrics present=%v on a round with traced=%v", small.name, ok, traced)
			}
		}
	}
}

func TestDegradedShareIsSixtyPercent(t *testing.T) {
	small := *specByName("degraded-64k")
	small.records, small.valueSize = 600, 4<<10
	small.warmOps, small.countOps = 64, 1500
	res, err := runRound(&small, 1, 0, time.Second, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if share := res.Metrics["core.degraded_read_share"]; share < 0.5 || share > 0.7 || res.Failed != 0 {
		t.Fatalf("degraded share %v (failed=%d), want about K/N = 0.6 with no failed reads", share, res.Failed)
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json equal to what the
// metric and workload tables generate (bash bench/run.sh -manifest).
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/: ", err)
	}
	var onDisk, generated any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	fresh, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fresh, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, generated) {
		t.Fatal("BENCHMARK.json differs from the tables in measure.go and spec.go; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	for _, sp := range specs {
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", sp.name, len(sp.why))
		}
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}
