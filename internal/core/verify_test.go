package core_test

import (
	"bytes"
	"errors"
	"testing"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
)

func TestVerifyConsistentStripe(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if err := c.Set("k", bytes.Repeat([]byte("v"), 3000)); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify("k")
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v", ok, err)
	}
}

func TestVerifyMissingKey(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if _, err := c.Verify("nope"); !errors.Is(err, core.ErrNotFound) {
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
	ok, err := c.Verify("k")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("incomplete stripe verified as consistent")
	}
}

func TestVerifyDetectsCorruptChunk(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	if err := c.Set("k", bytes.Repeat([]byte("v"), 3000)); err != nil {
		t.Fatal(err)
	}
	// Corrupt one stored chunk in place on whichever server holds it.
	corrupted := false
	for i := 0; i < 5 && !corrupted; i++ {
		st := cl.Server(i).Store()
		for idx := 0; idx < 5; idx++ {
			key := "k\x00c" + string(rune('0'+idx))
			if payload, ok := st.Get(key); ok {
				payload[len(payload)-1] ^= 0xFF
				if err := st.Set(key, payload, 0); err != nil {
					t.Fatal(err)
				}
				corrupted = true
				break
			}
		}
	}
	if !corrupted {
		t.Fatal("found no chunk to corrupt")
	}
	ok, err := c.Verify("k")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("corrupted stripe verified as consistent")
	}
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
	corrupted := false
	for i := 0; i < 5 && !corrupted; i++ {
		st := cl.Server(i).Store()
		for idx := 0; idx < 3; idx++ { // corrupt a data chunk
			key := "k\x00c" + string(rune('0'+idx))
			if payload, ok := st.Get(key); ok {
				payload[len(payload)-1] ^= 0xFF
				if err := st.Set(key, payload, 0); err != nil {
					t.Fatal(err)
				}
				corrupted = true
				break
			}
		}
	}
	if !corrupted {
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
	if ok, err := c.Verify("k"); err != nil || !ok {
		t.Fatalf("verify after repair: %v %v", ok, err)
	}
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
		ok, err := c.Verify(key)
		if err != nil || !ok {
			t.Fatalf("Verify(%s) = %v, %v", key, ok, err)
		}
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
	if ok, err := c.Verify("k"); err != nil || !ok {
		t.Fatalf("Verify with all replicas = %v, %v", ok, err)
	}
	// One holder loses its copy (a crash-and-restart-empty in
	// miniature): the key still reads fine, but it is NOT healthy.
	cl.Server(holders[0]).Store().Delete("k")
	ok, err := c.Verify("k")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify passed with a lost replica")
	}
	report, err := c.Repair("k")
	if err != nil {
		t.Fatal(err)
	}
	if report.Missing != 1 || report.Rewritten != 1 {
		t.Fatalf("repair report %+v, want the one lost replica rewritten", report)
	}
	if ok, err := c.Verify("k"); err != nil || !ok {
		t.Fatalf("Verify after repair = %v, %v", ok, err)
	}
}

func TestVerifyReplicationDetectsDivergedReplica(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceSyncRep, Replicas: 3})
	if err := c.Set("k", []byte("canonical")); err != nil {
		t.Fatal(err)
	}
	holders := replicaHolders(cl, 5, "k")
	if len(holders) == 0 {
		t.Fatal("no replica holders")
	}
	if err := cl.Server(holders[0]).Store().Set("k", []byte("DIVERGED!"), 0); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify("k")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify passed with a diverged replica")
	}
}

func TestVerifyReplicationMissingKey(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceAsyncRep, Replicas: 3})
	if _, err := c.Verify("nope"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("rep verify missing key: %v", err)
	}
	if _, err := c.Repair("nope"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("rep repair missing key: %v", err)
	}
}
