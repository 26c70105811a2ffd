package core_test

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"ecstore/internal/core"
)

// TTL round-trips through the wire to the store. Server stores use
// real time, so these tests use second-scale TTLs and only assert the
// not-yet-expired and store-accounting behaviour (expiry mechanics are
// unit-tested against a fake clock in internal/store).
func TestSetTTLRoundTrip(t *testing.T) {
	cl := startCluster(t, 5)
	for name, cfg := range map[string]core.Config{
		"none":      {Resilience: core.ResilienceNone},
		"async-rep": {Resilience: core.ResilienceAsyncRep, Replicas: 3},
		"era-ce-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2},
		"era-se-sd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeSESD, K: 3, M: 2},
	} {
		t.Run(name, func(t *testing.T) {
			c := newClient(t, cl, cfg)
			if err := c.SetTTL("ttl-"+name, []byte("v"), time.Hour); err != nil {
				t.Fatal(err)
			}
			if got, err := c.Get("ttl-" + name); err != nil || string(got) != "v" {
				t.Fatalf("get before expiry: %q, %v", got, err)
			}
		})
	}
}

func TestSetTTLExpires(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
	})
	// The wire carries whole seconds (sub-second TTLs round up to 1s).
	if err := c.SetTTL("ephemeral", []byte("v"), time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("ephemeral"); err != nil {
		t.Fatalf("get before expiry: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Get("ephemeral"); errors.Is(err, core.ErrNotFound) {
			return // expired as expected
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("item did not expire within 5s of a 1s TTL")
}

func TestISetTTL(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, core.Config{Resilience: core.ResilienceNone})
	f := c.ISetTTL("k", []byte("v"), time.Hour)
	if _, err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("get: %q, %v", got, err)
	}
}

// TestSetTTLBeyondWireClamps: the wire carries whole seconds in 32 bits,
// and a longer TTL is clamped to the longest it can carry — never
// wrapped around into a short lifetime or into 0, which means "no
// expiry".
func TestSetTTLBeyondWireClamps(t *testing.T) {
	cl := startCluster(t, 5)
	for name, cfg := range map[string]core.Config{
		"async-rep": {Resilience: core.ResilienceAsyncRep, Replicas: 3},
		"era-ce-cd": {Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2},
	} {
		for _, ttl := range []time.Duration{1 << 32 * time.Second, (1<<32 + 5) * time.Second} {
			key := fmt.Sprintf("ttl-clamp-%s-%d", name, ttl/time.Second)
			c := newClient(t, cl, cfg)
			if err := c.SetTTL(key, []byte("v"), ttl); err != nil {
				t.Fatal(err)
			}
			item, err := c.Gets(key)
			if err != nil {
				t.Fatal(err)
			}
			if item.TTL != math.MaxUint32 {
				t.Errorf("%s: SetTTL(%v) reads back TTL %d s, want %d", name, ttl, item.TTL, uint32(math.MaxUint32))
			}
		}
	}
}
