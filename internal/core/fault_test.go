package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/hashring"
	"ecstore/internal/rpc"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// startNetemCluster launches an n-server cluster on a fault-injecting
// network and returns both.
func startNetemCluster(t *testing.T, n int) (*cluster.Cluster, *transport.Netem) {
	t.Helper()
	netem := transport.NewNetem(transport.NewInproc(transport.Shape{}))
	cl, err := cluster.Start(cluster.Config{N: n, Network: netem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, netem
}

// TestHungServerOpsBounded is the headline failure-detection guarantee:
// with one server hung (accepts connections, never responds), every
// Set/Get/Delete completes within 2x OpTimeout, and Get still returns
// the correct value through a degraded read.
func TestHungServerOpsBounded(t *testing.T) {
	cl, netem := startNetemCluster(t, 5)
	const opTimeout = 200 * time.Millisecond
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
		OpTimeout:  opTimeout,
		MaxRetries: -1, // retries disabled: the bound must hold per attempt
	})
	value := bytes.Repeat([]byte("x"), 10_000)
	if err := c.Set("bounded", value); err != nil {
		t.Fatal(err)
	}

	hung := cl.Addrs()[0]
	netem.Hang(hung)
	defer netem.Restore(hung)

	bounded := func(name string, op func() error) error {
		t.Helper()
		start := time.Now()
		err := op()
		if elapsed := time.Since(start); elapsed > 2*opTimeout {
			t.Fatalf("%s took %v with a hung server; budget is %v", name, elapsed, 2*opTimeout)
		}
		return err
	}

	// Degraded read: the hung chunk holder times out, parity covers it.
	err := bounded("Get", func() error {
		got, err := c.Get("bounded")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, value) {
			t.Fatal("degraded read returned a wrong value")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Get with one hung chunk holder must succeed via parity: %v", err)
	}

	// Set and Delete may fail (the hung holder never acknowledges) but
	// must return within the budget rather than block.
	_ = bounded("Set", func() error { return c.Set("bounded-2", value) })
	_ = bounded("Delete", func() error { return c.Delete("bounded") })
}

// TestSlowServerStillCorrect: a pathologically slow (but live) server
// below the deadline does not produce wrong answers or failures.
func TestSlowServerStillCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
		OpTimeout: 2 * time.Second,
	})
	slow := cl.Addrs()[1]
	netem.Delay(slow, 20*time.Millisecond)
	defer netem.Restore(slow)

	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("slow-%d", i)
		value := bytes.Repeat([]byte{byte('a' + i)}, 4<<10)
		if err := c.Set(key, value); err != nil {
			t.Fatalf("Set under delay: %v", err)
		}
		got, err := c.Get(key)
		if err != nil || !bytes.Equal(got, value) {
			t.Fatalf("Get under delay: %v", err)
		}
	}
}

// TestFlappingServer alternates one server between hung and healthy
// while operations run with retries enabled: reads must stay correct
// and every operation must terminate.
func TestFlappingServer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
		OpTimeout:    150 * time.Millisecond,
		MaxRetries:   2,
		RetryBackoff: 5 * time.Millisecond,
	})
	flappy := cl.Addrs()[2]

	written := map[string][]byte{}
	readAll := func(round int) {
		t.Helper()
		for k, v := range written {
			got, err := c.Get(k)
			if err != nil {
				t.Fatalf("round %d: Get %s: %v", round, k, err)
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("round %d: Get %s returned a wrong value", round, k)
			}
		}
	}
	for round := 0; round < 3; round++ {
		netem.Hang(flappy)
		// During the outage: writes may fail (they must still
		// terminate — the test would hang here otherwise), reads must
		// stay correct via degraded reads.
		hungKey := fmt.Sprintf("flap-hung-%d", round)
		hungVal := bytes.Repeat([]byte{byte('a' + round)}, 2<<10)
		if err := c.Set(hungKey, hungVal); err == nil {
			written[hungKey] = hungVal
		}
		readAll(round)

		netem.Restore(flappy)
		// After the flap clears, writes must start succeeding again
		// within a short grace period (the suspect state persists until
		// a probe goes through and heals it).
		key := fmt.Sprintf("flap-%d", round)
		value := bytes.Repeat([]byte{byte('A' + round)}, 2<<10)
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := c.Set(key, value); err == nil {
				written[key] = value
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: writes never recovered after the flap cleared", round)
			}
			time.Sleep(10 * time.Millisecond)
		}
		readAll(round)
	}
}

// TestSuspectServerNotRedialedPerChunk: once a dead server trips the
// health tracker, further operations must not pay a fresh dial per
// chunk request — the suspect state fails fast and only spaced probes
// dial.
func TestSuspectServerNotRedialedPerChunk(t *testing.T) {
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
		MaxRetries: -1,
	})
	value := bytes.Repeat([]byte("y"), 8<<10)
	if err := c.Set("probe-key", value); err != nil {
		t.Fatal(err)
	}

	dead := cl.Addrs()[0]
	netem.Cut(dead)
	defer netem.Restore(dead)
	base := netem.DialCount(dead)

	const ops = 30
	for i := 0; i < ops; i++ {
		got, err := c.Get("probe-key")
		if err != nil {
			t.Fatalf("Get %d with one dead server: %v", i, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("Get %d returned a wrong value", i)
		}
	}

	// Without the tracker every Get would dial the dead server once
	// (30 dials). With it: threshold failures to trip, plus at most a
	// few backed-off probes.
	if dials := netem.DialCount(dead) - base; dials >= ops/2 {
		t.Fatalf("dead server dialed %d times across %d ops; health tracker not suppressing dials", dials, ops)
	}
}

// TestFailedSetDoesNotShadowPreviousValue is the torn-stripe
// regression: a Set that fails mid-write must never leave the new
// value readable. The old value may survive or the key may become
// unavailable, but a Get must not return the failed write's value.
func TestFailedSetDoesNotShadowPreviousValue(t *testing.T) {
	cl, netem := startNetemCluster(t, 5)
	v1 := bytes.Repeat([]byte("old"), 4<<10)
	v2 := bytes.Repeat([]byte("new"), 4<<10)

	for i, addr := range cl.Addrs() {
		t.Run(fmt.Sprintf("cut-%d", i), func(t *testing.T) {
			// Fresh client per sub-test: health state from the previous
			// cut must not leak in.
			c := newClient(t, cl, core.Config{
				Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
				OpTimeout:  200 * time.Millisecond,
				MaxRetries: -1,
			})
			key := fmt.Sprintf("shadow-%d", i)
			if err := c.Set(key, v1); err != nil {
				t.Fatal(err)
			}
			netem.Cut(addr)
			err := c.Set(key, v2)
			netem.Restore(addr)
			if err == nil {
				t.Fatal("Set with a dead chunk holder must fail")
			}
			got, gerr := c.Get(key)
			if gerr == nil && bytes.Equal(got, v2) {
				t.Fatal("failed Set's value became readable (torn stripe shadowed the old one)")
			}
			if gerr != nil && !errors.Is(gerr, core.ErrNotFound) && !errors.Is(gerr, core.ErrUnavailable) {
				t.Fatalf("unexpected Get error class: %v", gerr)
			}
		})
	}
}

// TestFailedSetOfFreshKeyLeavesNoChunk: a Set of a fresh key with one
// chunk holder cut fails, and every chunk it landed is unwound, whether
// the client or the key's primary server encoded the stripe. The cut
// holder is never the primary, so the era-se-cd client does not fail
// over to another coordinator.
func TestFailedSetOfFreshKeyLeavesNoChunk(t *testing.T) {
	for _, mode := range []string{"era-ce-cd", "era-se-cd"} {
		t.Run(mode, func(t *testing.T) {
			cl, netem := startNetemCluster(t, 5)
			cfg := allModes()[mode]
			cfg.OpTimeout, cfg.MaxRetries = 200*time.Millisecond, -1
			c := newClient(t, cl, cfg)
			const key = "fresh"
			n := cfg.K + cfg.M
			cutAddr := hashring.Build(0, cl.Addrs()).GetN(key, n)[2]
			netem.Cut(cutAddr)
			defer netem.Restore(cutAddr)
			if err := c.Set(key, bytes.Repeat([]byte("unwound"), 1000)); err == nil {
				t.Fatal("Set with a cut chunk holder succeeded")
			}
			for s, addr := range cl.Addrs() {
				for i := 0; i < n; i++ {
					if _, ok := cl.Server(s).Store().Get(wire.ChunkKey(key, i)); ok {
						t.Errorf("%s holds chunk %d of the failed write", addr, i)
					}
				}
			}
		})
	}
}

// TestHybridDeleteSurfacesECFailure is the hybrid-delete regression:
// when the erasure-coded side of a hybrid delete fails against enough
// unreachable holders that the value could survive there, Delete must
// not report success.
func TestHybridDeleteSurfacesECFailure(t *testing.T) {
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceHybrid, Replicas: 3, K: 3, M: 2,
		OpTimeout:  150 * time.Millisecond,
		MaxRetries: -1,
	})
	// Large value: stored erasure-coded across all five servers.
	value := bytes.Repeat([]byte("z"), 64<<10)
	if err := c.Set("hybrid-large", value); err != nil {
		t.Fatal(err)
	}

	// Hang K servers: the EC delete cannot confirm on enough holders
	// to rule out a surviving decodable stripe.
	for _, addr := range cl.Addrs()[:3] {
		netem.Hang(addr)
	}
	defer func() {
		for _, addr := range cl.Addrs()[:3] {
			netem.Restore(addr)
		}
	}()

	if err := c.Delete("hybrid-large"); err == nil {
		t.Fatal("hybrid Delete reported success while K chunk holders were unreachable")
	}
}

// TestHybridDeleteOfReplicatedValueTolerantOfFewDownHolders: the flip
// side — a small (replicated) value deletes cleanly even when a
// minority of servers is unreachable, because fewer than K unreached
// holders cannot hide an erasure-coded form.
func TestHybridDeleteOfReplicatedValueTolerantOfFewDownHolders(t *testing.T) {
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceHybrid, Replicas: 3, K: 3, M: 2,
		OpTimeout:  150 * time.Millisecond,
		MaxRetries: -1,
	})
	for i := 0; i < 8; i++ {
		if err := c.Set(fmt.Sprintf("hybrid-small-%d", i), []byte("tiny")); err != nil {
			t.Fatal(err)
		}
	}
	// One hung server: fewer than K holders unreached.
	hung := cl.Addrs()[4]
	netem.Hang(hung)
	defer netem.Restore(hung)

	deleted := 0
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("hybrid-small-%d", i)
		if err := c.Delete(key); err != nil {
			// A key whose replica set includes the hung server may
			// legitimately fail; skip it.
			continue
		}
		deleted++
		if _, err := c.Get(key); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("Get %s after successful Delete: %v, want ErrNotFound", key, err)
		}
	}
	if deleted == 0 {
		t.Fatal("no small key deleted cleanly with a single hung server")
	}
}

// TestNotFoundVsUnavailable is the get-classification regression: a
// missing key reads as ErrNotFound while the unreachable minority
// cannot hold K chunks, and as ErrUnavailable once it could.
func TestNotFoundVsUnavailable(t *testing.T) {
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
		OpTimeout:  150 * time.Millisecond,
		MaxRetries: -1,
	})

	// One hung server: four locations answer not-found, one is silent.
	// A single silent holder cannot hold K=3 chunks, so the miss is
	// conclusive.
	netem.Hang(cl.Addrs()[0])
	if _, err := c.Get("never-written"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("one hung holder: got %v, want ErrNotFound", err)
	}

	// Three hung servers: only two answer. Three silent holders could
	// hold a full stripe, so absence cannot be concluded.
	netem.Hang(cl.Addrs()[1])
	netem.Hang(cl.Addrs()[2])
	defer func() {
		for _, addr := range cl.Addrs()[:3] {
			netem.Restore(addr)
		}
	}()
	if _, err := c.Get("never-written"); !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("three hung holders: got %v, want ErrUnavailable", err)
	}
}

// TestRetryRecoversAfterBlip: a read issued while the cluster is hung
// succeeds anyway if the fault clears within the retry budget.
func TestRetryRecoversAfterBlip(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
		OpTimeout:    100 * time.Millisecond,
		MaxRetries:   5,
		RetryBackoff: 20 * time.Millisecond,
	})
	value := []byte("blip-value")
	if err := c.Set("blip", value); err != nil {
		t.Fatal(err)
	}
	// Hang three servers (too many for a degraded read), then clear
	// the fault while the first attempt is timing out.
	for _, addr := range cl.Addrs()[:3] {
		netem.Hang(addr)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		for _, addr := range cl.Addrs()[:3] {
			netem.Restore(addr)
		}
	}()
	got, err := c.Get("blip")
	if err != nil {
		t.Fatalf("Get across a transient outage: %v", err)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("wrong value after retry")
	}
}

// TestCasConvergenceIsOneRound: once a replicated Cas's decider has
// answered, the other holders are converged in ONE batcher round under
// one deadline — so with two of them hung the op returns about one
// OpTimeout after the decision, not one timeout per hung holder as the
// hand-rolled serial walk cost. A DeleteCas is the delete round itself,
// conditional at every holder, so it too waits out the hung holders
// once.
func TestCasConvergenceIsOneRound(t *testing.T) {
	const opTimeout = 250 * time.Millisecond
	for _, tc := range []struct {
		name, mode string
		holders    int
		op         func(c *core.Client, key string, token uint64) error
	}{
		{"rep Cas", "async-rep", 3, func(c *core.Client, key string, token uint64) error {
			_, err := c.Cas(key, []byte("v2"), 0, token)
			return err
		}},
		{"rep DeleteCas", "async-rep", 3, (*core.Client).DeleteCas},
		{"ec DeleteCas", "era-ce-cd", 5, (*core.Client).DeleteCas},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, netem := startNetemCluster(t, 5)
			cfg := allModes()[tc.mode]
			cfg.OpTimeout = opTimeout
			c := newClient(t, cl, cfg)
			const key = "converge"
			token, err := c.SetVersion(key, bytes.Repeat([]byte("v"), 4<<10), 0)
			if err != nil {
				t.Fatal(err)
			}
			// The first holder decides; two of the others never answer.
			for _, addr := range replicaPlacement(cl.Addrs(), key, tc.holders)[1:3] {
				netem.Hang(addr)
				defer netem.Restore(addr)
			}
			start := time.Now()
			if err := tc.op(c, key, token); err != nil {
				t.Fatalf("decided at a live holder, yet: %v", err)
			}
			if elapsed := time.Since(start); elapsed >= 2*opTimeout {
				t.Errorf("took %v with two hung holders: a timeout each, want one round (%v)", elapsed, opTimeout)
			}
		})
	}
}

// TestAdminFanOutIsOneRound: an admin call's fan-out is one batcher
// round under one deadline, so on 5 servers with two hung (T =
// OpTimeout) a PushView and a FlushAll each return within 1.5T — one
// timeout for both hung servers, where asking one server after another
// cost 2T. PushView is acked by the three live servers; FlushAll
// reports the first hung server in AllServers order, and the live
// servers are flushed. Each call counts as one op labelled admin.
func TestAdminFanOutIsOneRound(t *testing.T) {
	const opTimeout = 250 * time.Millisecond
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceSyncRep, Replicas: 3, OpTimeout: opTimeout})
	for i := range 20 {
		if err := c.Set(fmt.Sprintf("admin-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	baseline := poolDelta()
	all := c.View().AllServers()
	hung := []string{all[1], all[3]}
	for _, addr := range hung {
		netem.Hang(addr)
	}
	budget := opTimeout + opTimeout/2
	timed := func(name string, op func() error) error {
		t.Helper()
		start := time.Now()
		err := op()
		if elapsed := time.Since(start); elapsed >= budget {
			t.Errorf("%s took %v with two hung servers, want one round (< %v)", name, elapsed, budget)
		}
		return err
	}

	counter := func(name string) int64 { return c.Metrics().Snapshot().Counter(name) }
	ops, errs := counter(`ecstore_client_ops_total{op="admin"}`), counter(`ecstore_client_op_errors_total{op="admin"}`)

	v := c.View().WithAdded(all[0]) // the next epoch, same servers
	if err := timed("PushView", func() error { _, err := c.PushView(v); return err }); err != nil {
		t.Fatalf("PushView acked by three servers, yet: %v", err)
	}
	for i, addr := range cl.Addrs() {
		if got := cl.Server(i).View().Epoch; slices.Contains(hung, addr) != (got != v.Epoch) {
			t.Errorf("server %s holds epoch %d after the push of %d (hung: %v)", addr, got, v.Epoch, slices.Contains(hung, addr))
		}
	}

	err := timed("FlushAll", c.FlushAll)
	if !errors.Is(err, rpc.ErrTimeout) || !strings.Contains(err.Error(), hung[0]) || strings.Contains(err.Error(), hung[1]) {
		t.Fatalf("FlushAll returned %v, want the timeout of %s", err, hung[0])
	}
	for i, addr := range cl.Addrs() {
		if items := cl.Server(i).Store().Stats().Items; !slices.Contains(hung, addr) && items != 0 {
			t.Errorf("live server %s holds %d items after FlushAll", addr, items)
		}
	}
	// Each call is one admin op; the flush, which returned an error, a failed one.
	if got, gotErrs := counter(`ecstore_client_ops_total{op="admin"}`)-ops, counter(`ecstore_client_op_errors_total{op="admin"}`)-errs; got != 2 || gotErrs != 1 {
		t.Errorf("PushView and FlushAll counted %d admin ops, %d failed; want 2, 1", got, gotErrs)
	}
	for _, addr := range hung {
		netem.Restore(addr)
	}
	waitPoolBaseline(t, baseline)
}

// TestScanPagesServersInLockstep: a scan asks every server for its next
// page in one round, so it costs the rounds of the longest keyspace,
// not the sum over servers. Each of 5 servers holds three pages (an
// erasure-coded key leaves a chunk on every one), and under Delay(d) on
// all five ScanKeysOn returns the same sorted keys as with no delay
// within 6d — three rounds — where paging one server after another took
// at least 15d.
func TestScanPagesServersInLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	const delay = 20 * time.Millisecond
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	want := make([]string, 2*wire.DefaultScanLimit+100)
	for i := range want {
		want[i] = fmt.Sprintf("lockstep-%04d", i)
		if err := c.Set(want[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(want)
	for i := range cl.Addrs() {
		if n := cl.Server(i).Store().Stats().Items; n <= 2*wire.DefaultScanLimit {
			t.Fatalf("server %d holds %d keys, fewer than three pages", i, n)
		}
	}
	undelayed, err := c.ScanKeysOn(cl.Addrs())
	if err != nil || !slices.Equal(undelayed, want) {
		t.Fatalf("scan with no delay: %d keys, %v; want the %d written", len(undelayed), err, len(want))
	}
	baseline := poolDelta()
	for _, addr := range cl.Addrs() {
		netem.Delay(addr, delay)
	}
	start := time.Now()
	got, err := c.ScanKeysOn(cl.Addrs())
	elapsed := time.Since(start)
	for _, addr := range cl.Addrs() {
		netem.Restore(addr)
	}
	if err != nil || !slices.Equal(got, undelayed) {
		t.Fatalf("delayed scan: %d keys, %v; want the %d of the undelayed scan", len(got), err, len(undelayed))
	}
	t.Logf("scan of 5 servers x 3 pages under a %v delay: %v (%.1f delays)", delay, elapsed, float64(elapsed)/float64(delay))
	if elapsed >= 6*delay {
		t.Errorf("scan took %v, want three rounds (< %v)", elapsed, 6*delay)
	}
	waitPoolBaseline(t, baseline)
}

// TestLateCompletionMissesRecycledBatcher drives the hazard the
// batcher's pool must not open: a round's deadline fires on a call to a
// slow holder, the operation ends and its batcher — round and slab —
// goes back to the client's pool, and the next operation draws the same
// batcher and issues to the same holder while the late response is
// still on its way. The holder's delay straddles the deadline, so the
// response sometimes beats it, sometimes lands just after, and sometimes
// races the firing itself. A late completion may only reach a used slot:
// every Get returns its own key's value (or fails), most operations run
// in a recycled batcher, and the frame pool balances.
func TestLateCompletionMissesRecycledBatcher(t *testing.T) {
	baseline := poolDelta()
	cl, netem := startNetemCluster(t, 5)
	const timeout = 10 * time.Millisecond
	cfg := allModes()["era-ce-cd"]
	cfg.OpTimeout, cfg.MaxRetries = timeout, -1
	c := newClient(t, cl, cfg)
	constructed := core.CountBatchers(c)
	// The ledger's skip window never holds, so every Get asks the slow
	// holder again.
	var now time.Time
	core.SetClock(c, func() time.Time { now = now.Add(time.Hour); return now })

	// Two keys whose first data chunk one server holds, with values of
	// one length: a chunk of one key delivered to the other's call would
	// decode to a wrong value, not fail on its size.
	ring := hashring.Build(0, c.View().Servers)
	slow := ring.GetN("late-a", 5)[0]
	keys := []string{"late-a"}
	for i := 0; len(keys) < 2; i++ {
		if k := fmt.Sprintf("late-b-%d", i); ring.GetN(k, 5)[0] == slow {
			keys = append(keys, k)
		}
	}
	values := map[string][]byte{}
	for i, k := range keys {
		values[k] = bytes.Repeat([]byte{byte('a' + i)}, 1<<10)
		if err := c.Set(k, values[k]); err != nil {
			t.Fatal(err)
		}
	}

	// At and after the deadline, each between two answers well before
	// it, so the holder never fails three times running and stays out of
	// the suspect state.
	delays := []time.Duration{-3 * time.Millisecond, 0, -3 * time.Millisecond, time.Millisecond}
	const rounds = 60
	for i := range rounds {
		for j, k := range keys {
			netem.Delay(slow, timeout+delays[(2*i+j)%len(delays)])
			got, err := c.Get(k)
			switch {
			case err != nil && !errors.Is(err, core.ErrUnavailable) && !rpc.IsUnavailable(err):
				t.Fatalf("Get(%s): %v", k, err)
			case err == nil && !bytes.Equal(got, values[k]):
				t.Fatalf("Get(%s) returned another key's value (%q...)", k, got[:4])
			}
		}
	}
	netem.Restore(slow)
	if c.Metrics().Snapshot().Counter("ecstore_rpc_timeouts_total") == 0 {
		t.Error("no round's deadline fired")
	}
	if n := constructed(); n > rounds {
		t.Errorf("%d operations constructed %d batchers: the pool recycled too few to test", 2*rounds, n)
	}
	waitPoolBaseline(t, baseline)
}
