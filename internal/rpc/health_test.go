package rpc

import (
	"errors"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/metrics"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// positions returns the set of the positions given.
func positions(js ...int) erasure.ShardSet {
	var s erasure.ShardSet
	for _, j := range js {
		s.Add(j)
	}
	return s
}

// TestHolderRecord pins the miss run on a fake clock: three misses in a
// row avoid a holder for DefaultProbeMax, a hit in between starts the
// count again (a holder that loses a chunk now and then is never
// avoided), the first read after the window asks the holder again and a
// miss there avoids it for another window, and one hit forgets it.
func TestHolderRecord(t *testing.T) {
	p := NewPool(transport.NewInproc(transport.Shape{}))
	defer p.Close()
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	placement := []string{"a", "b", "c"}
	miss := func() { p.ObserveChunks(placement, erasure.ShardSet{}, positions(0), clock) }
	hit := func() { p.ObserveChunks(placement, positions(0), erasure.ShardSet{}, clock) }
	avoided := func() []string { return p.Avoided(nil, clock) }

	miss()
	miss()
	hit()
	miss()
	miss()
	if got := avoided(); got != nil {
		t.Fatalf("avoided %v after two misses in a row", got)
	}
	miss()
	if got := avoided(); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("avoided %v after three misses in a row, want [a]", got)
	}
	now = now.Add(DefaultProbeMax - time.Nanosecond)
	if got := avoided(); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("avoided %v inside the window, want [a]", got)
	}
	now = now.Add(time.Nanosecond)
	if got := avoided(); got != nil {
		t.Fatalf("avoided %v once the window passed", got)
	}
	miss() // the probe misses: another window
	if got := avoided(); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("avoided %v after a missed probe, want [a]", got)
	}
	hit()
	if got := avoided(); got != nil || p.missRuns.Load() != 0 || p.avoiding.Load() != 0 {
		t.Fatalf("after a hit: avoided %v, %d miss runs, %d avoiding; want none", got, p.missRuns.Load(), p.avoiding.Load())
	}
}

// TestHolderRecordRunsAreIndependent pins that the two runs of a record
// do not reset each other: an answered call (a not-found is one) ends
// the failure run and leaves the miss run, a hit ends the miss run and
// leaves a down server down; and that a down server stays avoided past
// its probe time, until a probe is answered.
func TestHolderRecordRunsAreIndependent(t *testing.T) {
	p := NewPool(transport.NewInproc(transport.Shape{}))
	defer p.Close()
	boom := errors.New("boom")
	now := time.Now()
	clock := func() time.Time { return now }
	placement := []string{"a"}
	miss := func() { p.ObserveChunks(placement, erasure.ShardSet{}, positions(0), clock) }

	// A restarted empty server: it answers every call and misses every
	// chunk.
	for i := 0; i < DefaultFailureThreshold; i++ {
		miss()
		p.observe("a", now, now, nil)
	}
	if got := p.Avoided(nil, clock); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("avoided %v after three answered misses, want [a]", got)
	}
	if isDown(p, "a") {
		t.Fatal("misses took the server down")
	}

	// Two failures, an answer, two failures: never down.
	for i := 0; i < 2; i++ {
		p.observe("a", now, now, boom)
	}
	p.observe("a", now, now, nil)
	for i := 0; i < 2; i++ {
		p.observe("a", now, now, boom)
	}
	if isDown(p, "a") {
		t.Fatal("an answered call did not end the failure run")
	}
	p.observe("a", now, now, boom)
	if !isDown(p, "a") {
		t.Fatal("three failures in a row did not take the server down")
	}

	// A hit ends the miss run; the server stays down, and avoided after
	// its probe is due, until the probe is answered.
	p.ObserveChunks(placement, positions(0), erasure.ShardSet{}, clock)
	if !isDown(p, "a") {
		t.Fatal("a hit brought a down server back")
	}
	if got := p.Avoided(nil, clock); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("avoided %v while down before its probe, want [a]", got)
	}
	p.mu.Lock()
	now = p.records["a"].nextProbe.Add(time.Hour)
	p.mu.Unlock()
	if got := p.Avoided(nil, clock); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("avoided %v once its probe was due, want [a]", got)
	}
	if p.avoiding.Load() != 1 || p.missRuns.Load() != 0 {
		t.Fatalf("%d avoiding, %d miss runs; want the down server only", p.avoiding.Load(), p.missRuns.Load())
	}
	p.observe("a", now, now, nil) // the probe is answered
	if got := p.Avoided(nil, clock); got != nil || p.avoiding.Load() != 0 {
		t.Fatalf("after an answered probe: avoided %v, %d avoiding; want none", got, p.avoiding.Load())
	}
}

// TestHolderRecordConcurrent drives one pool's records from many readers
// and callers at once, as a client's concurrent Gets and a server's
// concurrent decode-gets do; run it under -race. Once every holder has
// hit and answered, nothing is left avoided.
func TestHolderRecordConcurrent(t *testing.T) {
	reg := metrics.NewRegistry()
	p := NewPool(transport.NewInproc(transport.Shape{}), WithMetrics(reg))
	defer p.Close()
	placement := []string{"a", "b", "c", "d", "e"}
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [8]string
			for i := 0; i < 500; i++ {
				var hits, misses erasure.ShardSet
				for j := range placement {
					if (i+j+g)%3 == 0 {
						misses.Add(j)
					} else {
						hits.Add(j)
					}
				}
				p.ObserveChunks(placement, hits, misses, time.Now)
				now := time.Now()
				err := error(nil)
				if (i+g)%2 == 0 {
					err = boom
				}
				p.observe(placement[i%len(placement)], now, now, err)
				_ = p.Avoided(buf[:0], time.Now)
			}
		}()
	}
	wg.Wait()
	now := time.Now()
	for _, addr := range placement {
		p.observe(addr, now, now, nil)
	}
	p.ObserveChunks(placement, positions(0, 1, 2, 3, 4), erasure.ShardSet{}, time.Now)
	snap := reg.Snapshot()
	if p.avoiding.Load() != 0 || p.missRuns.Load() != 0 || snap.Gauges["ecstore_rpc_avoided_servers"] != 0 || snap.Gauges["ecstore_rpc_suspect_servers"] != 0 {
		t.Fatalf("after every holder hit and answered: %d avoiding, %d miss runs, gauges %v", p.avoiding.Load(), p.missRuns.Load(), snap.Gauges)
	}
}

// TestHealthGaugesUnwind pins that the down and avoided gauges fall back
// to 0 when a server recovers, and when a pool that has a server down
// and another avoided for its misses is closed. A probe is due at once,
// so the first call after the server is back is its probe.
func TestHealthGaugesUnwind(t *testing.T) {
	netem := transport.NewNetem(transport.NewInproc(transport.Shape{}))
	reg := metrics.NewRegistry()
	p := NewPool(netem, WithMetrics(reg), withHealthPolicy(3, time.Nanosecond, time.Nanosecond))
	gauges := func() (down, avoided int64) {
		snap := reg.Snapshot()
		return snap.Gauges["ecstore_rpc_suspect_servers"], snap.Gauges["ecstore_rpc_avoided_servers"]
	}
	fail := func(addr string) {
		for i := 0; i < 3; i++ {
			if _, err := send(p, addr, &wire.Request{Op: wire.OpPing, Key: "k"}).wait(); !errors.Is(err, ErrServerDown) {
				t.Fatalf("failure %d: got %v", i, err)
			}
		}
	}

	fail("flap")
	if down, avoided := gauges(); down != 1 || avoided != 1 {
		t.Fatalf("one server down: gauges down %d, avoided %d; want 1, 1", down, avoided)
	}
	startEcho(t, netem, "flap")
	if _, err := p.Roundtrip("flap", &wire.Request{Op: wire.OpPing, Key: "k"}); err != nil {
		t.Fatalf("probe of the recovered server: %v", err)
	}
	if down, avoided := gauges(); down != 0 || avoided != 0 {
		t.Fatalf("after recovery: gauges down %d, avoided %d; want 0, 0", down, avoided)
	}

	fail("ghost")
	for i := 0; i < 3; i++ {
		p.ObserveChunks([]string{"flap"}, erasure.ShardSet{}, positions(0), time.Now)
	}
	if down, avoided := gauges(); down != 1 || avoided != 2 {
		t.Fatalf("one server down, one missing: gauges down %d, avoided %d; want 1, 2", down, avoided)
	}
	p.Close()
	if down, avoided := gauges(); down != 0 || avoided != 0 || p.avoiding.Load() != 0 {
		t.Fatalf("after Close: gauges down %d, avoided %d, %d avoiding; want 0", down, avoided, p.avoiding.Load())
	}
}

// TestMetricsCatalogued fails on any series NewPool registers that
// README's metric table does not list.
func TestMetricsCatalogued(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| `ecstore_") {
			rows = append(rows, line)
		}
	}
	reg := metrics.NewRegistry()
	NewPool(transport.NewInproc(transport.Shape{}), WithMetrics(reg)).Close()
	snap := reg.Snapshot()
	var names []string
	for _, m := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name := range m {
			names = append(names, name)
		}
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	if len(names) == 0 {
		t.Fatal("the pool registered no series")
	}
	for _, name := range names {
		listed := slices.ContainsFunc(rows, func(row string) bool { return strings.Contains(row, "`"+name+"`") })
		if !listed {
			t.Errorf("README's metric table does not list %s", name)
		}
	}
}
