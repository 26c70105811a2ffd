package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/hashring"
	"ecstore/internal/server"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// TestCasAllModes exercises the memcached CAS contract under every
// resilience configuration: a token from Gets admits exactly one
// conditional write, a stale token is rejected, and a CAS on an absent
// key is not an insert.
func TestCasAllModes(t *testing.T) {
	cl := startCluster(t, 5)
	for name, cfg := range allModes() {
		t.Run(name, func(t *testing.T) {
			c := newClient(t, cl, cfg)
			key := name + "-cas"
			if err := c.Set(key, []byte("v1")); err != nil {
				t.Fatalf("Set: %v", err)
			}
			item, err := c.Gets(key)
			if err != nil {
				t.Fatalf("Gets: %v", err)
			}
			if item.Version == 0 {
				t.Fatal("Gets returned version 0 for a fresh write")
			}
			if !bytes.Equal(item.Value, []byte("v1")) {
				t.Fatalf("Gets value = %q", item.Value)
			}
			v1 := item.Version

			// Fresh token wins.
			v2, err := c.Cas(key, []byte("v2"), 0, item.Version)
			if err != nil {
				t.Fatalf("Cas with fresh token: %v", err)
			}
			if v2 == 0 || v2 == item.Version {
				t.Fatalf("Cas returned version %d (old %d)", v2, item.Version)
			}

			// The replaced token is now stale.
			if _, err := c.Cas(key, []byte("v3"), 0, item.Version); !errors.Is(err, core.ErrCASConflict) {
				t.Fatalf("Cas with stale token: %v, want ErrCASConflict", err)
			}
			got, err := c.Get(key)
			if err != nil || !bytes.Equal(got, []byte("v2")) {
				t.Fatalf("value after stale Cas = %q, %v", got, err)
			}

			// The winning write's version is readable.
			item, err = c.Gets(key)
			if err != nil || item.Version != v2 {
				t.Fatalf("Gets after Cas: version %d, %v (want %d)", item.Version, err, v2)
			}

			// CAS on an absent key does not insert.
			if _, err := c.Cas(name+"-cas-absent", []byte("x"), 0, item.Version); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("Cas on absent key: %v, want ErrNotFound", err)
			}
			if _, err := c.Get(name + "-cas-absent"); !errors.Is(err, core.ErrNotFound) {
				t.Fatal("Cas on absent key inserted it")
			}

			// DeleteCas: a stale token removes nothing, the fresh one
			// removes the key for good — an Add may take it again — and an
			// absent key is not found.
			if err := c.DeleteCas(key, v1); !errors.Is(err, core.ErrCASConflict) {
				t.Fatalf("DeleteCas with stale token: %v, want ErrCASConflict", err)
			}
			if got, err := c.Get(key); err != nil || !bytes.Equal(got, []byte("v2")) {
				t.Fatalf("value after stale DeleteCas = %q, %v", got, err)
			}
			if err := c.DeleteCas(key, v2); err != nil {
				t.Fatalf("DeleteCas with fresh token: %v", err)
			}
			if _, err := c.Get(key); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("Get after DeleteCas: %v, want ErrNotFound", err)
			}
			if _, err := c.Cas(key, []byte("v4"), 0, wire.CompareAbsent); err != nil {
				t.Fatalf("Add after DeleteCas: %v", err)
			}
			if err := c.DeleteCas(name+"-cas-absent", v2); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("DeleteCas on absent key: %v, want ErrNotFound", err)
			}
		})
	}
}

// TestAddAllModes checks add semantics: first add wins, second loses,
// and add after delete wins again.
func TestAddAllModes(t *testing.T) {
	cl := startCluster(t, 5)
	for name, cfg := range allModes() {
		t.Run(name, func(t *testing.T) {
			c := newClient(t, cl, cfg)
			key := name + "-add"
			version, err := c.Cas(key, []byte("first"), 0, wire.CompareAbsent)
			if err != nil {
				t.Fatalf("Add on absent key: %v", err)
			}
			if version == 0 {
				t.Fatal("Add returned version 0")
			}
			if _, err := c.Cas(key, []byte("second"), 0, wire.CompareAbsent); !errors.Is(err, core.ErrCASConflict) {
				t.Fatalf("Add on existing key: %v, want ErrCASConflict", err)
			}
			got, err := c.Get(key)
			if err != nil || !bytes.Equal(got, []byte("first")) {
				t.Fatalf("value after losing Add = %q, %v", got, err)
			}
			if err := c.Delete(key); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := c.Cas(key, []byte("third"), 0, wire.CompareAbsent); err != nil {
				t.Fatalf("Add after Delete: %v", err)
			}
		})
	}
}

// TestGetsTTL checks that the remaining lifetime rides along with the
// item on both replicated and erasure-coded reads.
func TestGetsTTL(t *testing.T) {
	cl := startCluster(t, 5)
	for _, name := range []string{"sync-rep", "era-ce-cd", "era-se-sd"} {
		t.Run(name, func(t *testing.T) {
			c := newClient(t, cl, allModes()[name])
			key := name + "-ttl"
			if err := c.SetTTL(key, []byte("v"), time.Hour); err != nil {
				t.Fatalf("SetTTL: %v", err)
			}
			item, err := c.Gets(key)
			if err != nil {
				t.Fatalf("Gets: %v", err)
			}
			if item.TTL == 0 || item.TTL > 3600 {
				t.Fatalf("TTL = %d, want (0, 3600]", item.TTL)
			}
			if err := c.Set(key, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if item, err = c.Gets(key); err != nil || item.TTL != 0 {
				t.Fatalf("TTL after no-expiry Set = %d, %v", item.TTL, err)
			}
		})
	}
}

// TestFlushAll checks the cluster-wide flush behind memcached
// flush_all.
func TestFlushAll(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	for i := 0; i < 10; i++ {
		if err := c.Set(fmt.Sprintf("flush-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Get(fmt.Sprintf("flush-%d", i)); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("Get after FlushAll: %v, want ErrNotFound", err)
		}
	}
}

// TestCasSurvivesPartialChunkLoss is the erasure-coded edge the design
// doc calls out: losing one chunk holder's data must not break a CAS
// whose token is still readable (the stripe decodes), and the CAS must
// re-materialise the lost chunk.
func TestCasSurvivesPartialChunkLoss(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	key := "cas-chunk-loss"
	if err := c.Set(key, bytes.Repeat([]byte("x"), 4096)); err != nil {
		t.Fatal(err)
	}
	item, err := c.Gets(key)
	if err != nil {
		t.Fatalf("Gets: %v", err)
	}
	// Simulate one holder crashing and restarting empty.
	cl.Server(0).Store().Flush()
	version, err := c.Cas(key, []byte("new-value"), 0, item.Version)
	if err != nil {
		t.Fatalf("Cas across chunk loss: %v", err)
	}
	got, err := c.Gets(key)
	if err != nil || !bytes.Equal(got.Value, []byte("new-value")) || got.Version != version {
		t.Fatalf("after Cas: %q version %d, %v", got.Value, got.Version, err)
	}
	// Full redundancy again: the conditional write restored the chunk
	// the flushed server lost.
	requireConverged(t, c, key)
}

// TestDeleteCasCleanupCrossesEpoch pins that a conditional delete
// removes every chunk, not just the one that decided: a holder already
// on a newer view rejects the cleanup delete at the old epoch, and must
// get it again at the refreshed one. A chunk left behind would fail
// every later Add at that holder.
func TestDeleteCasCleanupCrossesEpoch(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	key := "delete-cas-epoch"
	version, err := c.SetVersion(key, bytes.Repeat([]byte("d"), 3<<10), 0)
	if err != nil {
		t.Fatal(err)
	}
	holder := -1
	for i := range cl.Addrs() {
		if _, ok := cl.Server(i).Store().Get(wire.ChunkKey(key, 2)); ok {
			holder = i
		}
	}
	if holder < 0 {
		t.Fatal("no server holds chunk 2")
	}
	if !cl.Server(holder).AdoptView(c.View().WithAdded("kv-ghost")) {
		t.Fatalf("server %d refused the next view", holder)
	}

	if err := c.DeleteCas(key, version); err != nil {
		t.Fatalf("DeleteCas: %v", err)
	}
	for i := range cl.Addrs() {
		for j := 0; j < 5; j++ {
			if _, ok := cl.Server(i).Store().Get(wire.ChunkKey(key, j)); ok {
				t.Errorf("server %d still holds chunk %d", i, j)
			}
		}
	}
}

// TestMGetItemsReportsPerKeyErrors is the bulk-read classification
// fix: with every server down, MGetItems must report the keys as
// failed — not silently absent.
func TestMGetItemsReportsPerKeyErrors(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceSyncRep, Replicas: 3, MaxRetries: 1})
	keys := []string{"mgi-a", "mgi-b", "mgi-c"}
	if err := c.Set(keys[0], []byte("va")); err != nil {
		t.Fatal(err)
	}
	found, failed := c.MGetItems(keys)
	if len(failed) != 0 {
		t.Fatalf("failed = %v on healthy cluster", failed)
	}
	if len(found) != 1 || !bytes.Equal(found[keys[0]].Value, []byte("va")) {
		t.Fatalf("found = %v", found)
	}

	for i := 0; i < 5; i++ {
		cl.Kill(i)
	}
	found, failed = c.MGetItems(keys)
	if len(found) != 0 {
		t.Fatalf("found = %v with cluster down", found)
	}
	for _, k := range keys {
		if err, ok := failed[k]; !ok || !errors.Is(err, core.ErrUnavailable) {
			t.Fatalf("failed[%s] = %v, want ErrUnavailable", k, err)
		}
	}
}

// TestDeleteCasReachesDrainingHolder: a conditional delete of a key a
// ring add moved, before its drain, removes the copies and chunks the
// draining ring still places as well as the current ones, and counts a
// removal there as a deletion.
func TestDeleteCasReachesDrainingHolder(t *testing.T) {
	for name, width := range map[string]int{"sync-rep": 3, "era-ce-cd": 5, "hybrid": 3} {
		t.Run(name, func(t *testing.T) {
			cl := startCluster(t, 5)
			c := newClient(t, cl, migrationModes()[name])
			before := hashring.Build(0, cl.Addrs())
			after := hashring.Build(0, append(cl.Addrs(), "kv-joiner"))
			key := ""
			for i := 0; key == ""; i++ {
				if k := fmt.Sprintf("%s-moved-%d", name, i); !slices.Equal(before.GetN(k, width), after.GetN(k, width)) {
					key = k
				}
			}
			version, err := c.SetVersion(key, []byte("small value"), 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.AddServer("kv-joiner"); err != nil {
				t.Fatal(err)
			}
			if _, err := c.RingAdd("kv-joiner"); err != nil {
				t.Fatal(err)
			}

			if err := c.DeleteCas(key, version); err != nil {
				t.Fatalf("DeleteCas before the drain: %v", err)
			}
			assertNoTrace(t, cl, key)
			if got, err := c.Get(key); !errors.Is(err, core.ErrNotFound) {
				t.Errorf("Get after DeleteCas = %q, %v; want ErrNotFound", got, err)
			}
		})
	}
}

// TestDeleteCasWithFirstReplicaEmpty: a replicated conditional delete
// whose first replica restarted empty removes the copies the others
// hold, and no convergence brings the value back.
func TestDeleteCasWithFirstReplicaEmpty(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["sync-rep"])
	const key = "delete-cas-first-empty"
	version, err := c.SetVersion(key, []byte("v1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	first := slices.Index(cl.Addrs(), replicaPlacement(cl.Addrs(), key, 3)[0])
	cl.Kill(first)
	if err := cl.Restart(first); err != nil {
		t.Fatal(err)
	}

	if err := c.DeleteCas(key, version); err != nil {
		t.Fatalf("DeleteCas: %v", err)
	}
	if report, err := c.Repair(key); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Repair after DeleteCas = %s, %v; want ErrNotFound", report, err)
	}
	if got, err := c.Get(key); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Get after DeleteCas = %q, %v; want ErrNotFound", got, err)
	}
}

// chunkKeysOf returns the storage keys of key's chunks 0 to n-1.
func chunkKeysOf(key string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = wire.ChunkKey(key, i)
	}
	return keys
}

// assertNoTrace fails t for every server that still holds key or one of
// its five chunks.
func assertNoTrace(t *testing.T, cl *cluster.Cluster, key string) {
	t.Helper()
	for i, addr := range cl.Addrs() {
		for _, k := range append([]string{key}, chunkKeysOf(key, 5)...) {
			if _, ok := cl.Server(i).Store().Get(k); ok {
				t.Errorf("%s still holds %s", addr, k)
			}
		}
	}
}

// holderOf returns the server whose store holds k.
func holderOf(t *testing.T, cl *cluster.Cluster, k string) *server.Server {
	t.Helper()
	for i := range cl.Addrs() {
		if _, ok := cl.Server(i).Store().Get(k); ok {
			return cl.Server(i)
		}
	}
	t.Fatalf("no server holds %s", k)
	return nil
}

// TestDeleteCasOverStaleReplica: a replicated conditional delete decides
// at the replica Cas decides at, and then removes a replica a Cas's
// convergence missed, which still holds the version before it. Neither
// its answer nor a later convergence may bring that older value back.
func TestDeleteCasOverStaleReplica(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["sync-rep"])
	const key = "delete-cas-stale-replica"
	v0, err := c.SetVersion(key, []byte("v0"), 0)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := c.Cas(key, []byte("v1"), 0, v0)
	if err != nil {
		t.Fatal(err)
	}
	last := slices.Index(cl.Addrs(), replicaPlacement(cl.Addrs(), key, 3)[2])
	if err := cl.Server(last).Store().SetVersioned(key, []byte("v0"), 0, v0); err != nil {
		t.Fatal(err)
	}

	if err := c.DeleteCas(key, v1); err != nil {
		t.Fatalf("DeleteCas of the version the decider holds: %v", err)
	}
	if report, err := c.Repair(key); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Repair after DeleteCas = %s, %v; want ErrNotFound", report, err)
	}
	if got, err := c.Get(key); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Get after DeleteCas = %q, %v; want ErrNotFound", got, err)
	}
	assertNoTrace(t, cl, key)
}

// TestDeleteCasOverStaleChunk: an erasure-coded conditional delete of
// the stripe a read decodes succeeds though one holder keeps a chunk of
// an older stripe, and removes that chunk too. A stripe that outranks
// the named one makes it a conflict, and a read then decodes that
// stripe.
func TestDeleteCasOverStaleChunk(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	const key = "delete-cas-stale-chunk"
	chunkKeys := chunkKeysOf(key, 5)
	// old keeps chunks 0..2 of a first stripe, as the holders store them.
	type stored struct {
		value   []byte
		version uint64
	}
	var old [3]stored
	if _, err := c.SetVersion(key, []byte("old value"), 0); err != nil {
		t.Fatal(err)
	}
	for j := range old {
		value, version, _, _ := holderOf(t, cl, chunkKeys[j]).Store().GetMeta(chunkKeys[j])
		old[j] = stored{bytes.Clone(value), version}
	}
	plant := func(positions int) {
		for j := range positions {
			if err := holderOf(t, cl, chunkKeys[j]).Store().SetVersioned(chunkKeys[j], old[j].value, 0, old[j].version); err != nil {
				t.Fatal(err)
			}
		}
	}

	stripe, err := c.SetVersion(key, []byte("new value"), 0)
	if err != nil {
		t.Fatal(err)
	}
	plant(1)
	if err := c.DeleteCas(key, stripe); err != nil {
		t.Fatalf("DeleteCas with one stale chunk beside the named stripe: %v", err)
	}
	assertNoTrace(t, cl, key)
	if got, err := c.Get(key); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Get after DeleteCas = %q, %v; want ErrNotFound", got, err)
	}

	if stripe, err = c.SetVersion(key, []byte("new value"), 0); err != nil {
		t.Fatal(err)
	}
	plant(3)
	if err := c.DeleteCas(key, stripe); !errors.Is(err, core.ErrCASConflict) {
		t.Fatalf("DeleteCas with K chunks of another stripe: %v, want ErrCASConflict", err)
	}
	if got, err := c.Get(key); err != nil || string(got) != "old value" {
		t.Errorf("Get after the conflict = %q, %v; want the stripe that outranked", got, err)
	}
}

// TestDeleteRetriedAcrossRingChange: a delete whose round removed the
// key while one holder had already adopted a ring without itself is
// re-run at that ring, where the key is then absent. The re-run only
// finishes the delete the first round made, so it reports a deletion,
// not a miss.
func TestDeleteRetriedAcrossRingChange(t *testing.T) {
	for _, conditional := range []bool{false, true} {
		t.Run(fmt.Sprintf("conditional=%v", conditional), func(t *testing.T) {
			cl := startCluster(t, 5)
			c := newClient(t, cl, allModes()["sync-rep"])
			const key = "delete-across-ring-change"
			version, err := c.SetVersion(key, []byte("v1"), 0)
			if err != nil {
				t.Fatal(err)
			}
			leaver := replicaPlacement(cl.Addrs(), key, 3)[2]
			if !cl.Server(slices.Index(cl.Addrs(), leaver)).AdoptView(c.View().WithRemoved(leaver).Drained()) {
				t.Fatalf("%s refused the view without it", leaver)
			}

			if conditional {
				err = c.DeleteCas(key, version)
			} else {
				err = c.Delete(key)
			}
			if err != nil {
				t.Fatalf("delete across the ring change: %v", err)
			}
			if c.View().Contains(leaver) {
				t.Fatalf("the delete ran at %v, not at the ring without %s", c.View(), leaver)
			}
			if got, err := c.Get(key); !errors.Is(err, core.ErrNotFound) {
				t.Errorf("Get after the delete = %q, %v; want ErrNotFound", got, err)
			}
		})
	}
}

// TestAddKeepsValueTheDeciderLost: a replicated add whose first replica
// restarted empty must not overwrite the value the other replicas hold.
func TestAddKeepsValueTheDeciderLost(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["sync-rep"])
	const key = "add-over-lost-decider"
	if err := c.Set(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	first := slices.Index(cl.Addrs(), replicaPlacement(cl.Addrs(), key, 3)[0])
	cl.Server(first).Store().Delete(key)

	if _, err := c.Cas(key, []byte("v2"), 0, wire.CompareAbsent); !errors.Is(err, core.ErrCASConflict) {
		t.Fatalf("Add over a value two replicas hold: %v, want ErrCASConflict", err)
	}
	if _, err := c.Repair(key); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(key); err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("Get after the add and a repair = %q, %v; want v1", got, err)
	}
}

// TestDeleteCasIsOneRound: a conditional delete of a healthy key is one
// round of deletes, so with every server's answers held back by d it
// returns in about d, not the 2d of a second round.
func TestDeleteCasIsOneRound(t *testing.T) {
	const d = 100 * time.Millisecond
	for _, name := range []string{"sync-rep", "era-ce-cd", "hybrid"} {
		t.Run(name, func(t *testing.T) {
			cl, netem := startNetemCluster(t, 5)
			// Before the first dial: a read already waiting when a delay
			// is set returns without it.
			for _, addr := range cl.Addrs() {
				netem.Delay(addr, d)
			}
			c := newClient(t, cl, allModes()[name])
			const key = "delete-cas-round"
			version, err := c.SetVersion(key, []byte("small value"), 0)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if err := c.DeleteCas(key, version); err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			if elapsed >= d*3/2 {
				t.Errorf("took %v with answers held back by %v: more than one round", elapsed, d)
			}
			t.Logf("took %v", elapsed)
		})
	}
}

// TestHybridDeleteCasForms: a hybrid conditional delete decides in the
// form that holds the key — the erasure-coded one for a large value —
// and, once the replicated form decided, purges an erasure-coded
// leftover of another version, as a hybrid set would.
func TestHybridDeleteCasForms(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["hybrid"])
	large := bytes.Repeat([]byte("L"), 2*core.DefaultHybridThreshold)
	const key = "hybrid-delete-cas"
	stripe, err := c.SetVersion(key, large, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteCas(key, stripe+1); !errors.Is(err, core.ErrCASConflict) {
		t.Fatalf("DeleteCas of the large value with a stale token: %v, want ErrCASConflict", err)
	}
	if got, err := c.Get(key); err != nil || !bytes.Equal(got, large) {
		t.Fatalf("Get after the stale DeleteCas: %d bytes, %v", len(got), err)
	}

	// A small value written beside the stripe, as a cross-threshold
	// overwrite whose purge failed leaves it.
	rep := newClient(t, cl, allModes()["sync-rep"])
	version, err := rep.SetVersion(key, []byte("small"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteCas(key, version); err != nil {
		t.Fatalf("DeleteCas of the small value: %v", err)
	}
	assertNoTrace(t, cl, key)
	if _, err := c.Get(key); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Get after DeleteCas: %v, want ErrNotFound", err)
	}
}

// TestCasSplitByEpochKeepsItsStripe: an erasure-coded CAS that four of
// five chunk holders take while the fifth has already adopted a newer
// ring, and a repair at that ring which copies the new stripe to the
// fifth holder before the CAS hears back — the interleaving in which the
// membership-churn soak lost its CAS chain. Unwinding the split write
// deletes the new stripe at all five positions after it replaced the
// old one at four: neither version survives. The write is kept instead,
// and its epoch retry writes the same stripe at the newer ring, where
// every holder already has its chunk: the CAS succeeds and reads back.
func TestCasSplitByEpochKeepsItsStripe(t *testing.T) {
	cl := startCluster(t, 5)
	before := hashring.Build(0, cl.Addrs())
	if _, err := cl.AddServer("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	after := hashring.Build(0, cl.Addrs())
	// A key the newer ring places where the current one does: the
	// split, not a move, is what the test is about.
	key := ""
	var place []string
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("cas-epoch-split-%d", i)
		if place = before.GetN(k, 5); slices.Equal(place, after.GetN(k, 5)) {
			key = k
		}
	}
	holder := func(j int) *server.Server { return cl.Server(slices.Index(cl.Addrs(), place[j])) }

	// The CAS client dials through a netem of its own: delaying the
	// answers it gets holds the CAS open, after its chunk writes landed,
	// for it alone.
	cfg := allModes()["era-ce-cd"]
	netem := transport.NewNetem(cl.Network())
	cfg.Network, cfg.Servers = netem, cl.Addrs()[:5]
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	repairer := newClient(t, cl, allModes()["era-ce-cd"])

	stripe, err := c.SetVersion(key, []byte("v1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !holder(4).AdoptView(c.View().WithAdded("kv-joiner")) {
		t.Fatal("the fifth holder refused the newer ring")
	}
	const hold = 200 * time.Millisecond
	for _, addr := range place {
		netem.Delay(addr, hold)
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := c.Cas(key, []byte("v2"), 0, stripe)
		done <- err
	}()
	chunks := chunkKeysOf(key, 5)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		landed := 0
		for j := range 4 {
			if _, version, _, ok := holder(j).Store().GetMeta(chunks[j]); ok && version != stripe {
				landed++
			}
		}
		if landed == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the CAS's chunk writes never landed")
		}
	}
	if report, err := repairer.Repair(key); err != nil || report.Rewritten != 1 {
		t.Fatalf("repair during the split CAS: %s, %v; want the fifth chunk rewritten", report, err)
	}
	if took := time.Since(start); took > hold/2 {
		t.Fatalf("the repair ended %v into the CAS: it may not have run inside the %v hold", took, hold)
	}

	if err := <-done; err != nil {
		t.Fatalf("CAS split by a ring change: %v", err)
	}
	if got, err := repairer.Get(key); err != nil || string(got) != "v2" {
		t.Fatalf("Get after the split CAS = %q, %v; want v2", got, err)
	}
	requireConverged(t, repairer, key)
}
