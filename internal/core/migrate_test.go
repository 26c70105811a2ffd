package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ecstore/internal/core"
	"ecstore/internal/hashring"
	"ecstore/internal/wire"
)

// migrationModes are the resilience configurations whose placement
// actually moves data (mode none keeps a single copy and is covered by
// the rep path).
func migrationModes() map[string]core.Config {
	return map[string]core.Config{
		"sync-rep":  {Resilience: core.ResilienceSyncRep, Replicas: 3},
		"era-ce-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2},
		"hybrid":    {Resilience: core.ResilienceHybrid, Replicas: 3, K: 3, M: 2},
	}
}

// migrateAll repairs every key under the client's view — which still
// drains the ring a membership change replaced, so each repair moves
// its key — and returns the aggregate report.
func migrateAll(t *testing.T, c *core.Client, keys []string) core.RepairReport {
	t.Helper()
	var agg core.RepairReport
	for _, key := range keys {
		rep, err := c.Repair(key)
		if err != nil {
			t.Fatalf("migrate %q: %v", key, err)
		}
		agg.Moved = agg.Moved || rep.Moved
		agg.Rewritten += rep.Rewritten
		agg.Dropped += rep.Dropped
		agg.BytesMoved += rep.BytesMoved
	}
	return agg
}

// finishDrain publishes the client's view without its draining rings,
// as the background daemon does after a clean pass.
func finishDrain(t *testing.T, c *core.Client) {
	t.Helper()
	if _, err := c.PushView(c.View().Drained()); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateKeyAfterRingAdd(t *testing.T) {
	for name, cfg := range migrationModes() {
		t.Run(name, func(t *testing.T) {
			cl := startCluster(t, 5)
			c := newClient(t, cl, cfg)

			values := map[string][]byte{}
			var keys []string
			for i := 0; i < 30; i++ {
				key := fmt.Sprintf("%s-mig-%03d", name, i)
				value := bytes.Repeat([]byte{byte('a' + i%26)}, 2000+i)
				if err := c.Set(key, value); err != nil {
					t.Fatal(err)
				}
				values[key] = value
				keys = append(keys, key)
			}

			old := c.View()
			if _, err := cl.AddServer("kv-joiner"); err != nil {
				t.Fatal(err)
			}
			installed, err := c.RingAdd("kv-joiner")
			if err != nil {
				t.Fatal(err)
			}
			if installed.Epoch != old.Epoch+1 || !installed.Contains("kv-joiner") ||
				len(installed.Draining) != 1 || !slices.Equal(installed.Draining[0], old.Servers) {
				t.Fatalf("installed view = %v", installed)
			}

			agg := migrateAll(t, c, keys)
			if !agg.Moved || agg.Rewritten == 0 {
				t.Fatalf("no chunk was refilled onto the joined server: %+v", agg)
			}

			// Everything must read back intact through the new ring.
			for key, want := range values {
				got, err := c.Get(key)
				if err != nil {
					t.Fatalf("get %q after migration: %v", key, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("get %q: value corrupted by migration", key)
				}
			}

			// A second pass is a no-op: migration converged.
			again := migrateAll(t, c, keys)
			if again.Rewritten != 0 || again.Dropped != 0 {
				t.Fatalf("second migration pass still moved data: %+v", again)
			}

			// Every stripe is fully present at its NEW placement: no key
			// depends on chunks the old ring left behind.
			finishDrain(t, c)
			for _, key := range keys {
				report, err := c.Repair(key)
				if err != nil {
					t.Fatalf("repair %q: %v", key, err)
				}
				if report.Missing != 0 {
					t.Fatalf("stripe %q degraded at new placement: %+v", key, report)
				}
			}
		})
	}
}

func TestMigrateKeyAfterRingRemove(t *testing.T) {
	for name, cfg := range migrationModes() {
		t.Run(name, func(t *testing.T) {
			cl := startCluster(t, 6)
			c := newClient(t, cl, cfg)

			values := map[string][]byte{}
			var keys []string
			for i := 0; i < 30; i++ {
				key := fmt.Sprintf("%s-rm-%03d", name, i)
				value := bytes.Repeat([]byte{byte('A' + i%26)}, 1500+i)
				if err := c.Set(key, value); err != nil {
					t.Fatal(err)
				}
				values[key] = value
				keys = append(keys, key)
			}

			// Decommission flow: publish the shrunken ring FIRST, migrate
			// the departing server's data to the survivors, and only then
			// stop the process.
			victim := cl.Addrs()[2]
			if _, err := c.RingRemove(victim); err != nil {
				t.Fatal(err)
			}
			migrateAll(t, c, keys)
			cl.RemoveServer(2)

			for key, want := range values {
				got, err := c.Get(key)
				if err != nil {
					t.Fatalf("get %q after decommission: %v", key, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("get %q: value corrupted", key)
				}
			}
			for _, key := range keys {
				report, err := c.Repair(key)
				if err != nil {
					t.Fatalf("repair %q: %v", key, err)
				}
				if report.Missing != 0 {
					t.Fatalf("stripe %q degraded after decommission: %+v", key, report)
				}
			}
			// The view still drains the ring that named the stopped server:
			// the repairs above ran against it. Cleared, the current
			// placement alone holds every key.
			finishDrain(t, c)
			for _, key := range keys {
				if report, err := c.Repair(key); err != nil || report.Missing != 0 {
					t.Fatalf("stripe %q at the current placement alone: %+v, %v", key, report, err)
				}
			}
		})
	}
}

// TestMigrateSupersededKeyDrainsLeftovers: when a migration pass finds
// a key superseded by a live overwrite (probe smeared across stripes,
// none showing K chunks, newest chunk at the NEW placement), the
// old-placement leftovers are drained in that same pass — they used to
// linger until the key quiesced enough for a reconstructing pass.
func TestMigrateSupersededKeyDrainsLeftovers(t *testing.T) {
	cl := startCluster(t, 5)
	cfg := migrationModes()["era-ce-cd"]
	c := newClient(t, cl, cfg)
	const n = 5 // K+M chunk locations per key

	var keys []string
	s1 := map[string]uint64{}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("sup-%03d", i)
		ver, err := c.SetVersion(key, bytes.Repeat([]byte{byte(i)}, 4000+i), 0)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		s1[key] = ver
	}

	if _, err := cl.AddServer("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RingAdd("kv-joiner"); err != nil {
		t.Fatal(err)
	}

	// chunkAt scans every server for key's chunks at the given stripe,
	// returning (server, chunkIndex) pairs.
	type loc struct{ server, idx int }
	chunkAt := func(key string, stripe uint64) []loc {
		var out []loc
		for s := 0; s < len(cl.Addrs()); s++ {
			for i := 0; i < n; i++ {
				payload, version, _, ok := cl.Server(s).Store().GetMeta(wire.ChunkKey(key, i))
				if !ok {
					continue
				}
				if _, _, err := wire.DecodeChunkPayload(payload); err == nil && version == stripe {
					out = append(out, loc{s, i})
				}
			}
		}
		return out
	}
	// restamp moves a chunk to another stripe: the record stays, its
	// item version changes.
	restamp := func(key string, at loc, stripe uint64) {
		ck := wire.ChunkKey(key, at.idx)
		payload, _ := cl.Server(at.server).Store().Get(ck)
		if err := cl.Server(at.server).Store().SetVersioned(ck, payload, 0, stripe); err != nil {
			t.Fatal(err)
		}
	}

	// Overwrite under the new epoch: the new stripe lands at the NEW
	// placement, stranding old-stripe chunks wherever a position moved.
	// Pick a key that actually left leftovers behind.
	var key string
	var s2 uint64
	var leftovers []loc
	for _, k := range keys {
		ver, err := c.SetVersion(k, bytes.Repeat([]byte{0xEE}, 4100), 0)
		if err != nil {
			t.Fatal(err)
		}
		if left := chunkAt(k, s1[k]); len(left) > 0 {
			key, s2, leftovers = k, ver, left
			break
		}
	}
	if key == "" {
		t.Fatal("no key's placement moved after the ring change")
	}

	// Freeze the mid-overwrite smear the supersession branch is for: the
	// five new-placement chunks split 2/2/1 across three stripes, so no
	// stripe reaches K=3 — exactly what a probe sweep racing a writer
	// observes. The newest stripe sits at the new placement.
	fresh := chunkAt(key, s2)
	if len(fresh) != n {
		t.Fatalf("overwrite landed %d chunks at stripe %d, want %d", len(fresh), s2, n)
	}
	restamp(key, fresh[0], s2+1)
	restamp(key, fresh[1], s2+1)
	restamp(key, fresh[2], s2+2)

	report, err := c.Repair(key)
	if err != nil {
		t.Fatalf("migrate superseded key: %v", err)
	}
	if report.Dropped != len(leftovers) {
		t.Fatalf("dropped %d leftovers, want %d", report.Dropped, len(leftovers))
	}
	if report.Rewritten != 0 {
		t.Fatalf("superseded key was refilled (%d): migration must not touch a live writer's stripes", report.Rewritten)
	}
	if remaining := chunkAt(key, s1[key]); len(remaining) != 0 {
		t.Fatalf("%d old-placement leftovers survived the drain", len(remaining))
	}

	// The key heals with the next full write, and a later migration pass
	// over the quiesced key is a no-op: nothing left to drain or refill.
	want := bytes.Repeat([]byte{0x5C}, 4200)
	if err := c.Set(key, want); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(key); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after heal: %v", err)
	}
	again, err := c.Repair(key)
	if err != nil {
		t.Fatal(err)
	}
	if again.Dropped != 0 || again.Rewritten != 0 {
		t.Fatalf("post-heal migration pass still moved data: %+v", again)
	}
}

// TestWrongEpochRetryIsTransparent: a client left on a stale epoch
// keeps working — the server rejects with WrongEpoch, the client
// adopts the carried view and retries, all inside one Get/Set call.
func TestWrongEpochRetryIsTransparent(t *testing.T) {
	cl := startCluster(t, 5)
	admin := newClient(t, cl, core.Config{Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2})
	stale := newClient(t, cl, core.Config{Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2})

	if err := stale.Set("k", []byte("before")); err != nil {
		t.Fatal(err)
	}

	// The admin bumps the epoch behind the stale client's back.
	if _, err := cl.AddServer("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.RingAdd("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	if stale.View().Epoch != 1 {
		t.Fatalf("stale client already at epoch %d", stale.View().Epoch)
	}

	// Both a read and a write from the stale epoch succeed in one call.
	if got, err := stale.Get("k"); err != nil || string(got) != "before" {
		t.Fatalf("stale get: %q, %v", got, err)
	}
	if err := stale.Set("k2", []byte("after")); err != nil {
		t.Fatalf("stale set: %v", err)
	}
	if stale.View().Epoch != 2 {
		t.Fatalf("client did not adopt the pushed-back epoch: %d", stale.View().Epoch)
	}
	snap := stale.Metrics().Snapshot()
	if snap.Counters["ecstore_client_epoch_retries_total"] == 0 {
		t.Fatal("epoch retry counter never incremented")
	}

	// And the written value is visible to the up-to-date client.
	if got, err := admin.Get("k2"); err != nil || string(got) != "after" {
		t.Fatalf("admin read of post-retry write: %q, %v", got, err)
	}
}

// TestWrongEpochRetryCoversRepairVerify: the admin surface gets the
// same transparent adopt-and-retry as the data path — a scrub sidecar
// or kvcli left on a stale epoch must check and heal keys with Repair,
// not bail with an epoch mismatch (found driving kvcli against a
// cluster whose epoch had advanced twice since the client started). The
// name is kept from when a separate Verify call had a leg here.
func TestWrongEpochRetryCoversRepairVerify(t *testing.T) {
	for name, cfg := range migrationModes() {
		t.Run(name, func(t *testing.T) {
			cl := startCluster(t, 5)
			admin := newClient(t, cl, cfg)
			staleRepair := newClient(t, cl, cfg)

			key := name + "-epoch-admin"
			if err := admin.Set(key, []byte("payload")); err != nil {
				t.Fatal(err)
			}

			old := admin.View()
			// A second key, one the joiner takes a copy or chunk of, stays
			// unmigrated for the stale-migrate leg below.
			joined := hashring.Build(0, append(cl.Addrs(), "kv-joiner"))
			movedKey := ""
			for i := 0; movedKey == ""; i++ {
				if k := fmt.Sprintf("%s-epoch-moved-%d", name, i); slices.Contains(joined.GetN(k, 3), "kv-joiner") {
					movedKey = k
				}
			}
			if err := admin.Set(movedKey, []byte("moved payload")); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.AddServer("kv-joiner"); err != nil {
				t.Fatal(err)
			}
			if _, err := admin.RingAdd("kv-joiner"); err != nil {
				t.Fatal(err)
			}

			// A repair of a moved key from one epoch behind: the client
			// first adopts the joined view, which drains the old ring, and
			// then a second join moves the ring on behind its back. Its
			// rounds carry its stale epoch like everyone else's; a
			// migration used to count the rejections as unreachable holders
			// and fail with ErrUnavailable forever.
			staleMigrate := newClient(t, cl, cfg)
			staleMigrate.AdoptView(admin.View())
			if _, err := cl.AddServer("kv-joiner-2"); err != nil {
				t.Fatal(err)
			}
			bumped, err := admin.RingAdd("kv-joiner-2")
			if err != nil {
				t.Fatal(err)
			}
			if staleMigrate.View().Epoch != old.Epoch+1 {
				t.Fatalf("migrate client already at epoch %d", staleMigrate.View().Epoch)
			}
			moved, err := staleMigrate.Repair(movedKey)
			if err != nil || !moved.Moved || moved.Rewritten == 0 {
				t.Fatalf("migrate from stale epoch: %+v, %v", moved, err)
			}
			if staleMigrate.View().Epoch != bumped.Epoch {
				t.Fatalf("migrate client did not adopt the new epoch: %d", staleMigrate.View().Epoch)
			}

			// Move the first key too and finish the drain: epoch old+3.
			if _, err := admin.Repair(key); err != nil {
				t.Fatal(err)
			}
			finishDrain(t, admin)
			current := admin.View().Epoch

			if staleRepair.View().Epoch != old.Epoch {
				t.Fatalf("repair client already at epoch %d", staleRepair.View().Epoch)
			}
			report, err := staleRepair.Repair(key)
			if err != nil {
				t.Fatalf("repair from stale epoch: %v", err)
			}
			if report.Missing != 0 {
				t.Fatalf("repair from stale epoch found degraded stripe: %+v", report)
			}
			if staleRepair.View().Epoch != current {
				t.Fatalf("repair client did not adopt the new epoch: %d", staleRepair.View().Epoch)
			}
			if got, err := admin.Get(movedKey); err != nil || string(got) != "moved payload" {
				t.Fatalf("read after stale-epoch migration: %q, %v", got, err)
			}
		})
	}
}
