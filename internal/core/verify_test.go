package core_test

import (
	"bytes"
	"errors"
	"testing"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/wire"
)

// The TestVerify* cases check what a Repair attests: a report with
// Missing 0 and no error means full redundancy, and anything short of
// it — a lost, diverged or corrupt copy — is found and refilled.

func TestVerifyConsistentStripe(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if err := c.Set("k", bytes.Repeat([]byte("v"), 3000)); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, c, "k")
}

func TestVerifyMissingKey(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if _, err := c.Repair("nope"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestVerifyIncompleteStripe(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if err := c.Set("k", bytes.Repeat([]byte("v"), 3000)); err != nil {
		t.Fatal(err)
	}
	cl.Kill(1)
	report, err := c.Repair("k")
	if err != nil {
		t.Fatal(err)
	}
	if report.Missing != 1 || report.Rewritten != 0 {
		t.Fatalf("repair with a holder down: %s; want 1 missing, none rewritten", report)
	}
}

// rot flips the last byte of item key on whichever of the first n
// servers holds it, keeping the item's version and TTL — bit rot changes
// bytes, never the version the write installed. It reports whether a
// holder was found.
func rot(t *testing.T, cl *cluster.Cluster, n int, key string) bool {
	t.Helper()
	for i := 0; i < n; i++ {
		st := cl.Server(i).Store()
		if v, version, ttl, ok := st.GetMeta(key); ok {
			v = bytes.Clone(v)
			v[len(v)-1] ^= 0xFF
			if err := st.SetVersioned(key, v, ttl, version); err != nil {
				t.Fatal(err)
			}
			return true
		}
	}
	return false
}

func TestVerifyDetectsCorruptChunk(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if err := c.Set("k", bytes.Repeat([]byte("v"), 3000)); err != nil {
		t.Fatal(err)
	}
	if !rot(t, cl, 5, wire.ChunkKey("k", 4)) {
		t.Fatal("found no chunk to corrupt")
	}
	report, err := c.Repair("k")
	if err != nil || report.Missing != 1 || report.Rewritten != 1 {
		t.Fatalf("repair of a corrupt chunk: %s, %v; want it found and rewritten", report, err)
	}
	requireConverged(t, c, "k")
}

func TestGetRecoversFromSilentCorruption(t *testing.T) {
	// A bit-rotted chunk fails its CRC at decode time; the client
	// treats it as missing and reconstructs from parity, so Get
	// still returns the correct bytes.
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	value := bytes.Repeat([]byte("precious"), 500)
	if err := c.Set("k", value); err != nil {
		t.Fatal(err)
	}
	if !rot(t, cl, 5, wire.ChunkKey("k", 0)) { // a data chunk
		t.Fatal("no data chunk found to corrupt")
	}
	got, err := c.Get("k")
	if err != nil {
		t.Fatalf("get with corrupted chunk: %v", err)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("corruption leaked into the returned value")
	}
	// And Repair rewrites the corrupt chunk.
	report, err := c.Repair("k")
	if err != nil {
		t.Fatal(err)
	}
	if report.Missing != 1 || report.Rewritten != 1 {
		t.Fatalf("repair report %+v", report)
	}
	requireConverged(t, c, "k")
}

func TestVerifyHybrid(t *testing.T) {
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
		requireConverged(t, c, key)
	}
}

// replicaHolders returns the indices of servers whose store holds key.
func replicaHolders(cl *cluster.Cluster, n int, key string) []int {
	var holders []int
	for i := 0; i < n; i++ {
		if _, ok := cl.Server(i).Store().Get(key); ok {
			holders = append(holders, i)
		}
	}
	return holders
}

func TestVerifyReplicationDetectsLostReplica(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceSyncRep, Replicas: 3})
	if err := c.Set("k", []byte("replicated")); err != nil {
		t.Fatal(err)
	}
	holders := replicaHolders(cl, 5, "k")
	if len(holders) != 3 {
		t.Fatalf("value on %d servers, want 3", len(holders))
	}
	requireConverged(t, c, "k")
	// One holder loses its copy (a crash-and-restart-empty in
	// miniature): the key still reads fine, but it is NOT healthy.
	cl.Server(holders[0]).Store().Delete("k")
	report, err := c.Repair("k")
	if err != nil {
		t.Fatal(err)
	}
	if report.Missing != 1 || report.Rewritten != 1 {
		t.Fatalf("repair report %+v, want the one lost replica rewritten", report)
	}
	requireConverged(t, c, "k")
}

func TestVerifyReplicationDetectsDivergedReplica(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceSyncRep, Replicas: 3})
	if err := c.Set("k", []byte("canonical")); err != nil {
		t.Fatal(err)
	}
	holders := replicaHolders(cl, 5, "k")
	if len(holders) != 3 {
		t.Fatalf("value on %d servers, want 3", len(holders))
	}
	if !rot(t, cl, 5, "k") {
		t.Fatal("no replica to corrupt")
	}
	// Whichever copy the read path takes first is authoritative, so the
	// repair rewrites one replica or two — but every replica agrees after.
	report, err := c.Repair("k")
	if err != nil || report.Missing == 0 || report.Rewritten != report.Missing {
		t.Fatalf("repair of a diverged replica: %s, %v", report, err)
	}
	requireConverged(t, c, "k")
	want, _ := cl.Server(holders[0]).Store().Get("k")
	for _, i := range holders[1:] {
		if got, _ := cl.Server(i).Store().Get("k"); !bytes.Equal(got, want) {
			t.Fatalf("replicas still differ after repair: %q vs %q", got, want)
		}
	}
}

func TestVerifyReplicationMissingKey(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceAsyncRep, Replicas: 3})
	if _, err := c.Repair("nope"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("rep repair missing key: %v", err)
	}
}
