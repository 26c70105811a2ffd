package core_test

import (
	"bytes"
	"errors"
	"testing"

	"ecstore/internal/core"
)

// requireConverged asserts key is at full redundancy: a Repair finds
// nothing to refill, rewrite or drain.
func requireConverged(t *testing.T, c *core.Client, key string) {
	t.Helper()
	if report, err := c.Repair(key); err != nil || report.Missing != 0 || report.Rewritten != 0 || report.Dropped != 0 {
		t.Errorf("Repair(%s) = %s, %v; want a converged key", key, report, err)
	}
}

func TestRepairHealthyStripe(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if err := c.Set("k", bytes.Repeat([]byte("x"), 5000)); err != nil {
		t.Fatal(err)
	}
	report, err := c.Repair("k")
	if err != nil {
		t.Fatal(err)
	}
	if report.Missing != 0 || report.Checked != 5 || report.Rewritten != 0 {
		t.Fatalf("report %+v for healthy stripe", report)
	}
	if report.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestRepairAfterRestartErasure(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	value := bytes.Repeat([]byte("payload"), 3000)
	if err := c.Set("k", value); err != nil {
		t.Fatal(err)
	}
	// Two servers crash and come back empty: the stripe is degraded
	// but readable.
	cl.Kill(0)
	cl.Kill(3)
	if err := cl.Restart(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Restart(3); err != nil {
		t.Fatal(err)
	}
	report, err := c.Repair("k")
	if err != nil {
		t.Fatal(err)
	}
	if report.Missing == 0 || report.Rewritten != report.Missing {
		t.Fatalf("report %+v, want all missing chunks rewritten", report)
	}
	// The stripe is whole again: kill the two servers that NEVER
	// lost data; the repaired chunks alone must now carry the value.
	cl.Kill(1)
	cl.Kill(2)
	got, err := c.Get("k")
	if err != nil {
		t.Fatalf("read after repair with original survivors gone: %v", err)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("repaired data differs")
	}
}

func TestRepairTooManyFailures(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if err := c.Set("k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	cl.Kill(0)
	cl.Kill(1)
	cl.Kill(2)
	if _, err := c.Repair("k"); !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
}

func TestRepairMissingKey(t *testing.T) {
	cl := startCluster(t, 5)
	for name, cfg := range map[string]core.Config{
		"erasure":   {Resilience: core.ResilienceErasure, K: 3, M: 2},
		"async-rep": {Resilience: core.ResilienceAsyncRep, Replicas: 3},
		"hybrid":    {Resilience: core.ResilienceHybrid, Replicas: 3, K: 3, M: 2},
	} {
		c := newClient(t, cl, cfg)
		if _, err := c.Repair("no-such-key-" + name); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("%s: got %v, want ErrNotFound", name, err)
		}
	}
}

func TestRepairReplication(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceAsyncRep, Replicas: 3})
	value := []byte("replicated-value")
	if err := c.Set("k", value); err != nil {
		t.Fatal(err)
	}
	cl.Kill(0) // may or may not hold a replica of "k"
	if err := cl.Restart(0); err != nil {
		t.Fatal(err)
	}
	report, err := c.Repair("k")
	if err != nil {
		t.Fatal(err)
	}
	if report.Rewritten != report.Missing {
		t.Fatalf("report %+v", report)
	}
	// All three replicas must exist now: total stored copies == 3.
	copies := 0
	for i := 0; i < 5; i++ {
		if _, ok := cl.Server(i).Store().Get("k"); ok {
			copies++
		}
	}
	if copies != 3 {
		t.Fatalf("%d replicas after repair, want 3", copies)
	}
}

func TestRepairHybrid(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceHybrid, Replicas: 3, K: 3, M: 2,
	})
	if err := c.Set("small", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("large", bytes.Repeat([]byte("L"), 16<<10)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"small", "large"} {
		if _, err := c.Repair(key); err != nil {
			t.Fatalf("repair %s: %v", key, err)
		}
	}
}

// TestRepairHybridSmallAfterReplicaLoss is a regression test for the
// hybrid strategy on small (replicated, not erasure-coded) values: a
// server holding one of the replicas crashes and rejoins empty. The
// value still reads, and Repair must find the lost replica and restore
// the full replica set — a hybrid health check once accepted any single
// live replica, so the scrubber never re-filled the lost copy.
func TestRepairHybridSmallAfterReplicaLoss(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceHybrid, Replicas: 3, K: 3, M: 2,
	})
	value := []byte("small-and-precious")
	if err := c.Set("small", value); err != nil {
		t.Fatal(err)
	}
	holders := replicaHolders(cl, 5, "small")
	if len(holders) != 3 {
		t.Fatalf("value on %d servers, want 3", len(holders))
	}
	// Crash a replica holder; it rejoins with an empty store.
	cl.Kill(holders[0])
	if err := cl.Restart(holders[0]); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get("small"); err != nil || !bytes.Equal(got, value) {
		t.Fatalf("degraded read: %q, %v", got, err)
	}
	report, err := c.Repair("small")
	if err != nil {
		t.Fatal(err)
	}
	if report.Missing != 1 || report.Rewritten != 1 {
		t.Fatalf("repair report %+v, want the lost replica rewritten", report)
	}
	if got := replicaHolders(cl, 5, "small"); len(got) != 3 {
		t.Fatalf("%d replicas after repair, want 3", len(got))
	}
	requireConverged(t, c, "small")
	if got, err := c.Get("small"); err != nil || !bytes.Equal(got, value) {
		t.Fatalf("read after repair: %q, %v", got, err)
	}
}

func TestRepairPartialWhenServerStillDown(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if err := c.Set("k", bytes.Repeat([]byte("d"), 4000)); err != nil {
		t.Fatal(err)
	}
	cl.Kill(2) // stays down: its chunk cannot be rewritten in place
	report, err := c.Repair("k")
	if err != nil {
		t.Fatal(err)
	}
	if report.Missing == 0 {
		t.Fatal("no chunk reported missing with a server down")
	}
	if report.Rewritten >= report.Missing {
		t.Fatalf("report %+v: cannot rewrite onto a dead server", report)
	}
}
