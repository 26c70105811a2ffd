package core_test

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/hashring"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// TestConvergenceCostsRoundsNotTrips pins the ARPE rule for the
// background operations: a round's sub-requests are all issued before
// any is waited on, so an operation costs its rounds, not its
// locations. Every server answers after a fixed netem delay, and the
// unit is what that makes one blocking era-ce-cd Get of a healthy key
// cost (one round of K chunk fetches). A Repair of a healthy key is one
// round — its K+M probes used to be K+M serial round trips — and a
// Repair of a key whose placement moved is three (probe, refill,
// drain), where the probes alone used to be ten or so trips — and so is
// a RepairEach of a page of moved keys.
func TestConvergenceCostsRoundsNotTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	const delay = 20 * time.Millisecond
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, migrationModes()["era-ce-cd"])

	// Keys the joiner takes a chunk of, so migrating them refills and
	// drains: one alone, and a page of 16.
	joined := hashring.Build(0, append(cl.Addrs(), "kv-joiner"))
	var moving []string
	for i := 0; len(moving) < 17; i++ {
		if k := fmt.Sprintf("rounds-%d", i); slices.Contains(joined.GetN(k, 5), "kv-joiner") {
			moving = append(moving, k)
		}
	}
	key, page := moving[0], moving[1:]
	value := bytes.Repeat([]byte("r"), 6000)
	values := map[string][]byte{}
	for _, k := range moving {
		values[k] = value
	}
	for k, v := range values {
		if err := c.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	// A healthy key the join does not move: its Repair only probes.
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
		netem.Delay(addr, delay)
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
	probe := timed(func() error {
		report, err := c.Repair(healthy)
		if err == nil && (report.Missing != 0 || report.Dropped != 0) {
			err = fmt.Errorf("healthy key was not converged: %+v", report)
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
	// The page converges in the rounds one key takes.
	migratePage := timed(func() error {
		var err error
		c.RepairEach(page, func(key string, report core.RepairReport, e error) {
			if e == nil && (report.Rewritten == 0 || report.Dropped == 0) {
				e = fmt.Errorf("migration of %s moved nothing: %+v", key, report)
			}
			err = cmp.Or(err, e)
		})
		return err
	})
	t.Logf("unit (one Get) %v; healthy Repair %.2f units; moving Repair %.2f units; moving page of %d %.2f units",
		unit, float64(probe)/float64(unit), float64(migrate)/float64(unit), len(page), float64(migratePage)/float64(unit))
	if probe > 2*unit {
		t.Errorf("a healthy Repair took %v, more than 2 rounds of %v", probe, unit)
	}
	if migrate > 5*unit {
		t.Errorf("a moving Repair took %v, more than 5 rounds of %v", migrate, unit)
	}
	if migratePage > 5*unit {
		t.Errorf("a moving page of %d keys took %v, more than 5 rounds of %v", len(page), migratePage, unit)
	}
	for _, addr := range cl.Addrs() {
		netem.Restore(addr)
	}
	for k, v := range values {
		if got, err := c.Get(k); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("read of %s after migration: %d bytes, %v", k, len(got), err)
		}
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

// serverOps sums, over the first n servers of cl, the requests they
// served of each op named.
func serverOps(cl *cluster.Cluster, n int, ops ...string) (total int64) {
	for i := 0; i < n; i++ {
		snap := cl.Server(i).Metrics().Snapshot()
		for _, op := range ops {
			total += snap.Counter(`ecstore_server_ops_total{op="` + op + `"}`)
		}
	}
	return total
}

// TestRepairOfHealthyKeyWritesNothing: Repair is the scrubber's one call
// per key, so on a healthy key it costs its probe and not one write at
// any server — in hybrid mode, not the purge of a stripe that is not
// there either.
func TestRepairOfHealthyKeyWritesNothing(t *testing.T) {
	cl := startCluster(t, 5)
	writes := []string{"set", "set-chunk", "compare-set", "delete", "encode-set"}
	for _, tc := range []struct {
		name, mode string
		size       int
	}{
		{"era-ce-cd", "era-ce-cd", 6000},
		{"era-se-sd", "era-se-sd", 6000},
		{"sync-rep", "sync-rep", 100},
		{"hybrid-small", "hybrid", 100},
		{"hybrid-large", "hybrid", 16 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newClient(t, cl, allModes()[tc.mode])
			key := "healthy-" + tc.name
			if err := c.Set(key, bytes.Repeat([]byte("h"), tc.size)); err != nil {
				t.Fatal(err)
			}
			before := serverOps(cl, 5, writes...)
			requireConverged(t, c, key)
			if n := serverOps(cl, 5, writes...) - before; n != 0 {
				t.Fatalf("a Repair of a healthy key made %d server writes", n)
			}
		})
	}
}

// TestRepairEachOfHealthyPageCostsOneRound: RepairEach converges a
// page of keys in rounds, not key by key, so a page of 16 healthy keys
// on 5 servers costs one probe round — one frame per server — and, in
// hybrid, one probe round of each form; not one write at any server,
// and every response lease back in the frame pool. As 16 Repairs the
// same keys cost 48 rpc calls in sync-rep, 80 in era-ce-cd and 128 in
// hybrid.
func TestRepairEachOfHealthyPageCostsOneRound(t *testing.T) {
	cl := startCluster(t, 5)
	writes := []string{"set", "set-chunk", "compare-set", "delete", "encode-set"}
	for _, tc := range []struct {
		mode         string
		small, large int // value sizes of the even and the odd keys
		calls        int64
	}{
		{"sync-rep", 100, 100, 5},
		{"era-ce-cd", 6000, 6000, 5},
		{"hybrid", 100, 16 << 10, 10},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			c := newClient(t, cl, allModes()[tc.mode])
			keys := make([]string, 16)
			for i := range keys {
				keys[i] = fmt.Sprintf("page-%s-%02d", tc.mode, i)
				if err := c.Set(keys[i], bytes.Repeat([]byte("p"), []int{tc.small, tc.large}[i%2])); err != nil {
					t.Fatal(err)
				}
			}
			baseline := poolDelta()
			before := serverOps(cl, 5, writes...)
			calls := c.Metrics().Snapshot().Counter("ecstore_rpc_calls_total")
			// A duplicate is repaired once, and an absent key answers not
			// found without failing the others.
			absent := "page-" + tc.mode + "-absent"
			var repaired []string
			c.RepairEach(append(keys, keys[3], absent), func(key string, report core.RepairReport, err error) {
				repaired = append(repaired, key)
				switch {
				case key == absent:
					if !errors.Is(err, core.ErrNotFound) {
						t.Errorf("RepairEach %s: %v; want not found", key, err)
					}
				case err != nil || report.Missing != 0 || report.Rewritten != 0 || report.Dropped != 0:
					t.Errorf("RepairEach %s: %s, %v; want a healthy key", key, report, err)
				}
			})
			if want := append(slices.Clone(keys), absent); !slices.Equal(repaired, want) {
				t.Fatalf("RepairEach answered %q, want %q, each once in order", repaired, want)
			}
			if n := c.Metrics().Snapshot().Counter("ecstore_rpc_calls_total") - calls; n > tc.calls {
				t.Errorf("a page of %d healthy keys cost %d rpc calls, want at most %d", len(keys), n, tc.calls)
			}
			if n := serverOps(cl, 5, writes...) - before; n != 0 {
				t.Errorf("a page of healthy keys made %d server writes", n)
			}
			waitPoolBaseline(t, baseline)
		})
	}
}

// TestRepairKeepsARacingCasWinner: a write that lands between a
// repair's probe and its refill survives the refill. The first replica
// holder — the one reads ask first — has lost its copy and the repair's
// probe sees it empty; before the refill goes out, another client
// overwrites the key and a CAS replaces that. A refill conditional on
// what the probe saw there (nothing) answers Exists and the CAS winner
// stays; an unconditional one would put the old value back where reads
// look first, and the next repair would spread it to every replica.
func TestRepairKeepsARacingCasWinner(t *testing.T) {
	cl := startCluster(t, 5)
	cfg := allModes()["sync-rep"]
	writer := newClient(t, cl, cfg)
	// The repairing client dials through a netem of its own: delaying
	// its answers from one holder holds its probe round open, for it
	// alone.
	netem := transport.NewNetem(cl.Network())
	cfg.Network, cfg.Servers = netem, cl.Addrs()
	repairer, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(repairer.Close)

	const key = "raced"
	if err := writer.Set(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	placement := hashring.Build(0, writer.View().Servers).GetN(key, 3)
	cl.Server(slices.Index(cl.Addrs(), placement[0])).Store().Delete(key)

	const hold = time.Second
	netem.Delay(placement[2], hold)
	if err := repairer.Ping(placement[2]); err != nil { // moves the parked reader onto the delay
		t.Fatal(err)
	}
	probed := serverOps(cl, 5, "get")
	type outcome struct {
		report core.RepairReport
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		report, err := repairer.Repair(key)
		done <- outcome{report, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); serverOps(cl, 5, "get") < probed+3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the repair's probe never reached the replicas")
		}
	}

	start := time.Now()
	if err := writer.Set(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	item, err := writer.Gets(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Cas(key, []byte("v3"), 0, item.Version); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > hold/2 {
		t.Fatalf("the writes took %v: they may not have landed inside the repair's %v window", took, hold)
	}

	r := <-done
	if got, err := writer.Get(key); err != nil || string(got) != "v3" {
		t.Fatalf("after the racing repair Get = %q, %v; want the CAS winner v3", got, err)
	}
	if r.err != nil || r.report.Missing != 0 || r.report.Rewritten != 0 {
		t.Fatalf("racing repair: %s, %v; want its one refill lost to the newer value", r.report, r.err)
	}
	requireConverged(t, writer, key)
}

// TestRepairLeavesAStripeWriteInFlight: a repair whose probe catches
// an erasure-coded CAS after its first chunk write landed, with the old
// stripe still at the other four holders — the interleaving in which
// the membership-churn soak lost its CAS chain. The newer chunk is a
// write in flight, not a torn one: refilling the old stripe over it
// leaves the acknowledged CAS at four holders and the old stripe at the
// fifth, so the next CAS conflicts there, unwinds the four, and the key
// is gone. The repair leaves it, and the next CAS lands.
func TestRepairLeavesAStripeWriteInFlight(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	const key = "cas-in-flight"
	chunks := wire.AppendChunkKeys(nil, key, 0, 5)
	type record struct {
		value   []byte
		version uint64
	}
	// records saves the chunk each holder has of the key's stripe.
	records := func() (out [5]record) {
		for j := range out {
			value, version, _, _ := holderOf(t, cl, chunks[j]).Store().GetMeta(chunks[j])
			out[j] = record{bytes.Clone(value), version}
		}
		return out
	}
	land := func(rs [5]record, positions ...int) {
		for _, j := range positions {
			if err := holderOf(t, cl, chunks[j]).Store().SetVersioned(chunks[j], rs[j].value, 0, rs[j].version); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.SetVersion(key, []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	old := records()
	stripe, err := c.SetVersion(key, []byte("v2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	cas := records()
	// The CAS has landed at position 0 only when the repair probes.
	land(old, 1, 2, 3, 4)
	if report, err := c.Repair(key); err != nil || report.Rewritten != 0 {
		t.Errorf("repair during the CAS: %s, %v; want the in-flight chunk left alone", report, err)
	}
	land(cas, 1, 2, 3, 4)

	if _, err := c.Cas(key, []byte("v3"), 0, stripe); err != nil {
		t.Fatalf("CAS on the acknowledged stripe after the repair: %v", err)
	}
	if got, err := c.Get(key); err != nil || string(got) != "v3" {
		t.Fatalf("Get after the CAS = %q, %v; want v3", got, err)
	}
	requireConverged(t, c, key)
}

// TestMovedRottedChunkConvergesInOneRepair: a moved key whose chunk at
// a position the ring change kept is bit-rotted. The repair refills that
// chunk against the version its holder answered with, though the
// payload failed its check; a refill that demanded an absent chunk would
// answer Exists on every pass, and the view would never stop draining.
func TestMovedRottedChunkConvergesInOneRepair(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	before := hashring.Build(0, cl.Addrs())
	joined := hashring.Build(0, append(cl.Addrs(), "kv-joiner"))
	key, kept := "", -1
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("rotted-%d", i)
		now, then := joined.GetN(k, 5), before.GetN(k, 5)
		for pos := range now {
			if slices.Contains(now, "kv-joiner") && now[pos] == then[pos] {
				key, kept = k, pos
				break
			}
		}
	}
	value := bytes.Repeat([]byte("m"), 6000)
	if err := c.Set(key, value); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddServer("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RingAdd("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	if !rot(t, cl, 5, wire.ChunkKey(key, kept)) {
		t.Fatal("no chunk to corrupt")
	}
	report, err := c.Repair(key)
	if err != nil || !report.Moved || report.Missing < 2 || report.Rewritten != report.Missing {
		t.Fatalf("moving repair of a rotted stripe: %s, %v; want every refill landed", report, err)
	}
	requireConverged(t, c, key)
	if got, err := c.Get(key); err != nil || !bytes.Equal(got, value) {
		t.Fatalf("read after the repair: %d bytes, %v", len(got), err)
	}
}

// TestRepairRewritesParityThatDisagrees: a parity chunk whose bytes are
// wrong but whose record checks out (its CRC covers the wrong bytes) is
// silent corruption no read notices. A repair finding the stripe whole
// checks its parity against its data, and the data wins — reads decode
// it first — so both parity chunks are rebuilt from it; a second repair
// finds nothing to do.
func TestRepairRewritesParityThatDisagrees(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	if err := c.Set("k", bytes.Repeat([]byte("p"), 6000)); err != nil {
		t.Fatal(err)
	}
	parity := wire.ChunkKey("k", 3)
	holder := replicaHolders(cl, 5, parity)
	if len(holder) != 1 {
		t.Fatalf("parity chunk on %d servers", len(holder))
	}
	st := cl.Server(holder[0]).Store()
	payload, version, ttl, _ := st.GetMeta(parity)
	want := bytes.Clone(payload)
	meta, shard, err := wire.DecodeChunkPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	wrong := bytes.Clone(shard)
	wrong[0] ^= 0xFF
	if err := st.SetVersioned(parity, wire.EncodeChunkPayload(meta, wrong), ttl, version); err != nil {
		t.Fatal(err)
	}

	report, err := c.Repair("k")
	if err != nil || report.Missing != 2 || report.Rewritten != 2 {
		t.Fatalf("repair of a stripe whose parity disagrees: %s, %v; want both parity chunks rewritten", report, err)
	}
	requireConverged(t, c, "k")
	if got, _ := st.Get(parity); !bytes.Equal(got, want) {
		t.Fatal("the rewritten parity chunk differs from the one the write stored")
	}
}
