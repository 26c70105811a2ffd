package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/membership"
)

// TestECDeleteWaitsOutEveryFrame pins the fix for a drift between the
// former single-key and bulk deletes: the single-key erasure-coded
// Delete returned on the first chunk status that was neither OK nor
// NotFound, leaving its other issued deletes in flight and their pooled
// responses never released. A client one epoch behind the servers makes
// every chunk holder answer StatusWrongEpoch (carrying the newer view,
// so each response has a pooled body): the Delete must wait out and
// release all K+M of them before the epoch retry re-resolves, leave the
// frame pool balanced, and put nothing on the wire after it returns.
func TestECDeleteWaitsOutEveryFrame(t *testing.T) {
	baseline := poolDelta()
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	if err := c.Set("stale-delete", bytes.Repeat([]byte("d"), 4<<10)); err != nil {
		t.Fatal(err)
	}
	next := membership.View{Epoch: c.View().Epoch + 1, Servers: c.View().Servers}
	for i := range cl.Addrs() {
		if !cl.Server(i).AdoptView(next) {
			t.Fatalf("server %d refused epoch %d", i, next.Epoch)
		}
	}

	if err := c.Delete("stale-delete"); err != nil {
		t.Fatalf("Delete across an epoch bump: %v", err)
	}
	if c.View().Epoch != next.Epoch {
		t.Fatalf("client still at epoch %d after the retry", c.View().Epoch)
	}
	deletes := func() (n int64) {
		for i := range cl.Addrs() {
			n += cl.Server(i).Metrics().Snapshot().Counter(`ecstore_server_ops_total{op="delete"}`)
		}
		return n
	}
	landed := deletes()
	time.Sleep(50 * time.Millisecond)
	if later := deletes(); later != landed {
		t.Errorf("%d deletes reached the servers after Delete returned", later-landed)
	}
	if _, err := c.Get("stale-delete"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Get after Delete: %v, want ErrNotFound", err)
	}
	waitPoolBaseline(t, baseline)
}

// TestSingleKeyCostThroughExecutor pins what one key costs on the path
// every operation shares: heap allocations of a blocking era-ce-cd 1 KB
// Get and Set on a 5-server in-proc cluster (client and servers share
// the process, so the servers' allocations are counted too), and that
// neither a Get nor a 16-key MGet leaves or spawns a goroutine — the
// executor issues and waits on the caller's. bench/ is a nested module
// outside `go test ./...`; this is its tier-1 stand-in for allocs/op.
func TestSingleKeyCostThroughExecutor(t *testing.T) {
	// Measured at the commit before single-key ops moved onto the batch
	// executor (Get 63, Set 105), plus 2 of headroom.
	const maxGetAllocs, maxSetAllocs = 65, 107

	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
		DisableDeltaWrites: true,
	})
	value := bytes.Repeat([]byte("v"), 1<<10)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("cost-%d", i)
		if err := c.Set(keys[i], value); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		if _, err := c.Get(keys[0]); err != nil {
			t.Fatal(err)
		}
	}
	set := func() {
		if err := c.Set(keys[0], value); err != nil {
			t.Fatal(err)
		}
	}
	mget := func() {
		if found, err := c.MGet(keys); err != nil || len(found) != len(keys) {
			t.Fatalf("MGet: %d found, %v", len(found), err)
		}
	}
	// Warm the connections, pools and lazily started workers.
	for i := 0; i < 20; i++ {
		get()
		set()
		mget()
	}

	// The race detector's instrumentation allocates; the counts are
	// pinned without it.
	if !raceEnabled {
		if got := testing.AllocsPerRun(200, get); got > maxGetAllocs {
			t.Errorf("Get allocates %.0f objects, want <= %d", got, maxGetAllocs)
		} else {
			t.Logf("Get allocates %.0f objects", got)
		}
		if got := testing.AllocsPerRun(200, set); got > maxSetAllocs {
			t.Errorf("Set allocates %.0f objects, want <= %d", got, maxSetAllocs)
		} else {
			t.Logf("Set allocates %.0f objects", got)
		}
	}

	for name, op := range map[string]func(){"Get": get, "MGet": mget} {
		before := runtime.NumGoroutine()
		sawMore := false
		for i := 0; i < 50; i++ {
			op()
			if runtime.NumGoroutine() != before {
				sawMore = true
			}
		}
		if sawMore {
			t.Errorf("%s changed the goroutine count (was %d, now %d)", name, before, runtime.NumGoroutine())
		}
	}
}
