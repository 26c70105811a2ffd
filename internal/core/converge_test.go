package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/hashring"
)

// TestConvergenceCostsRoundsNotTrips pins the ARPE rule for the
// background operations: a round's sub-requests are all issued before
// any is waited on, so an operation costs its rounds, not its
// locations. Every server answers after a fixed netem delay, and the
// unit is what that makes one blocking era-ce-cd Get of a healthy key
// cost (one round of K chunk fetches). A Verify is one round — its K+M
// probes used to be K+M serial round trips — and a Repair of a key
// whose placement moved is three (probe, refill, drain), where the
// probes alone used to be ten or so trips.
func TestConvergenceCostsRoundsNotTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	const delay = 20 * time.Millisecond
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, migrationModes()["era-ce-cd"])

	// A key the joiner takes a chunk of, so migrating it refills and drains.
	joined := hashring.Build(0, append(cl.Addrs(), "kv-joiner"))
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("rounds-%d", i); slices.Contains(joined.GetN(k, 5), "kv-joiner") {
			key = k
		}
	}
	value := bytes.Repeat([]byte("r"), 6000)
	if err := c.Set(key, value); err != nil {
		t.Fatal(err)
	}
	// A healthy key the join does not move: Verify probes it.
	before := hashring.Build(0, c.View().Servers)
	healthy := ""
	for i := 0; healthy == ""; i++ {
		if k := fmt.Sprintf("healthy-%d", i); slices.Equal(joined.GetN(k, 5), before.GetN(k, 5)) {
			healthy = k
		}
	}
	if _, err := cl.AddServer("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RingAdd("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(healthy, value); err != nil {
		t.Fatal(err)
	}
	for _, addr := range cl.Addrs() {
		// The delay applies from a connection's next read on, and each
		// reader is already parked in one: a ping moves it along.
		netem.Delay(addr, delay)
		if err := c.Ping(addr); err != nil {
			t.Fatal(err)
		}
	}
	timed := func(op func() error) time.Duration {
		t.Helper()
		start := time.Now()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	unit := timed(func() error { _, err := c.Get(healthy); return err })
	if unit < delay {
		t.Fatalf("a Get took %v under a %v delay: the delay is not in effect", unit, delay)
	}
	verify := timed(func() error {
		ok, err := c.Verify(healthy)
		if err == nil && !ok {
			err = fmt.Errorf("healthy key did not verify")
		}
		return err
	})
	migrate := timed(func() error {
		report, err := c.Repair(key)
		if err == nil && (report.Rewritten == 0 || report.Dropped == 0) {
			err = fmt.Errorf("migration moved nothing: %+v", report)
		}
		return err
	})
	t.Logf("unit (one Get) %v; Verify %.2f units; moving Repair %.2f units",
		unit, float64(verify)/float64(unit), float64(migrate)/float64(unit))
	if verify > 2*unit {
		t.Errorf("Verify took %v, more than 2 rounds of %v", verify, unit)
	}
	if migrate > 5*unit {
		t.Errorf("a moving Repair took %v, more than 5 rounds of %v", migrate, unit)
	}
	for _, addr := range cl.Addrs() {
		netem.Restore(addr)
	}
	if got, err := c.Get(key); err != nil || !bytes.Equal(got, value) {
		t.Fatalf("read after migration: %d bytes, %v", len(got), err)
	}
}

// TestHybridMigratesStripeWhenReplicaSetStays: a ring change can move a
// key's K+M chunk holders while leaving its first F placement servers —
// the replica set — where they were. The replicated side of a hybrid
// migration then has nothing to do and used to answer for the whole
// key, so a large value's chunks never followed the ring: its stripe
// stayed degraded at the new placement until a scrub rebuilt the moved
// chunks from parity, and the displaced ones were never drained.
func TestHybridMigratesStripeWhenReplicaSetStays(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceHybrid, Replicas: 3, K: 3, M: 2,
	})
	joined := hashring.Build(0, append(cl.Addrs(), "kv-joiner"))
	var keys []string // two keys the joiner takes chunk 3 or 4 of, and no replica
	for i := 0; len(keys) < 2; i++ {
		k := fmt.Sprintf("stays-%d", i)
		if slices.Contains(joined.GetN(k, 5), "kv-joiner") && !slices.Contains(joined.GetN(k, 3), "kv-joiner") {
			keys = append(keys, k)
		}
	}
	key, small := keys[0], keys[1]
	for k, v := range map[string][]byte{key: bytes.Repeat([]byte("L"), 16<<10), small: []byte("tiny")} {
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.AddServer("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RingAdd("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	report, err := c.Repair(key)
	if err != nil || report.Rewritten == 0 || report.Dropped == 0 {
		t.Fatalf("migrate large key: %+v, %v", report, err)
	}
	if repair, err := c.Repair(key); err != nil || repair.Missing != 0 {
		t.Fatalf("stripe degraded at the new placement after migration: %+v, %v", repair, err)
	}
	// A replicated key in the same position is in place: nothing moves,
	// and finding no stripe of it is not an error.
	if report, err := c.Repair(small); err != nil || report.Moved || report.Rewritten != 0 || report.Dropped != 0 {
		t.Fatalf("migrate small key whose replica set stayed: %+v, %v", report, err)
	}
}
