package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ecstore/internal/core"
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
