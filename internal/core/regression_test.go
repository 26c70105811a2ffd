package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/hashring"
)

// replicaPlacement mirrors the client's placement computation: the ring
// of the cluster addresses, so a test can predict which servers hold a
// key's replicas.
func replicaPlacement(addrs []string, key string, n int) []string {
	return hashring.Build(0, addrs).GetN(key, n)
}

// TestAsyncRepSetWaitsOutIssuedWrites is the torn-async-write
// regression: when issuing replica writes fails partway, Set must not
// return until every already-issued write has completed. Returning
// early would let those writes keep landing after the error is
// reported, racing whatever corrective action the caller takes.
//
// Setup: the first replica holder is slow (responses delayed), the
// second is dead (writes fail synchronously). The write to the slow
// holder is issued first; issuing to the dead one then fails. A Set
// that returns well before the slow holder's response has been waited
// out has abandoned an in-flight write.
func TestAsyncRepSetWaitsOutIssuedWrites(t *testing.T) {
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceAsyncRep, Replicas: 3,
		OpTimeout:  2 * time.Second,
		MaxRetries: -1,
	})

	const key = "torn-async"
	placement := replicaPlacement(cl.Addrs(), key, 3)
	if len(placement) < 2 {
		t.Fatalf("placement too small: %v", placement)
	}
	const delay = 300 * time.Millisecond
	netem.Delay(placement[0], delay)
	netem.Cut(placement[1])
	defer func() {
		netem.Restore(placement[0])
		netem.Restore(placement[1])
	}()

	start := time.Now()
	err := c.Set(key, bytes.Repeat([]byte("v"), 1<<10))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Set with a dead replica holder must fail")
	}
	// The write to the delayed holder was issued before the failure;
	// its response takes >= delay to arrive, so a Set that waited it
	// out cannot return much sooner than that.
	if elapsed < delay*2/3 {
		t.Fatalf("Set returned after %v with a %v-delayed write still in flight: issued replica writes were not waited out", elapsed, delay)
	}
}

// TestHybridGetUnavailableNotMaskedAsNotFound is the hybrid
// error-classification regression: when the replicated probe fails
// ErrUnavailable (every replica holder unreachable), the erasure
// probe's authoritative not-found must not override it — the key may
// well exist on the unreachable replicas, so reporting ErrNotFound
// invents an authoritative miss the cluster never gave.
func TestHybridGetUnavailableNotMaskedAsNotFound(t *testing.T) {
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceHybrid, Replicas: 2, K: 3, M: 2,
		OpTimeout:  150 * time.Millisecond,
		MaxRetries: -1,
	})

	const key = "hybrid-masked"
	// Cut exactly the key's two replica holders: the replicated probe
	// sees only unreachable servers (ErrUnavailable), while the erasure
	// probe still reaches three of five chunk locations — fewer than K
	// unreached, so its miss is authoritative for the EC form only.
	placement := replicaPlacement(cl.Addrs(), key, 2)
	for _, addr := range placement {
		netem.Cut(addr)
	}
	defer func() {
		for _, addr := range placement {
			netem.Restore(addr)
		}
	}()

	_, err := c.Get(key)
	if !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("Get with every replica holder dead: got %v, want ErrUnavailable (an EC-side miss must not masquerade as an authoritative not-found)", err)
	}
}

// TestSubSecondTTLExpires is the TTL-truncation regression: the wire
// carries whole seconds, and a sub-second TTL used to truncate to 0 —
// which means "no expiry" — making short-lived items immortal. It now
// rounds up to 1s: the item lives slightly longer than asked, never
// forever.
func TestSubSecondTTLExpires(t *testing.T) {
	cl := startCluster(t, 5)
	for name, cfg := range map[string]core.Config{
		"none":      {Resilience: core.ResilienceNone},
		"era-ce-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2},
	} {
		t.Run(name, func(t *testing.T) {
			c := newClient(t, cl, cfg)
			key := fmt.Sprintf("sub-second-%s", name)
			if err := c.SetTTL(key, []byte("v"), 50*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if _, err := c.Get(key); errors.Is(err, core.ErrNotFound) {
					return // expired: the TTL made it to the store
				}
				time.Sleep(100 * time.Millisecond)
			}
			t.Fatal("item with a 50ms TTL never expired: sub-second TTL truncated to immortal")
		})
	}
}
