package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"ecstore/internal/core"
)

func bulkPairs(prefix string, n, size int) map[string][]byte {
	pairs := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		pairs[fmt.Sprintf("%s-%03d", prefix, i)] = bytes.Repeat([]byte{byte(i)}, size)
	}
	return pairs
}

func pairKeys(pairs map[string][]byte) []string {
	keys := make([]string, 0, len(pairs))
	for key := range pairs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// TestBulkFramesPinned pins the tentpole guarantee: a 64-key MGet on a
// 5-server cluster sends at most ONE request frame per contacted
// server (and at least one frame total), observed through the
// ecstore_client_bulk_frames_total counter. Without batching the same
// read costs 64 x K frames.
func TestBulkFramesPinned(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	pairs := bulkPairs("pin", 64, 128)
	if err := c.MSet(pairs); err != nil {
		t.Fatal(err)
	}

	before := c.Metrics().Snapshot().Counter("ecstore_client_bulk_frames_total")
	got, err := c.MGet(pairKeys(pairs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("MGet returned %d of %d keys", len(got), len(pairs))
	}
	frames := c.Metrics().Snapshot().Counter("ecstore_client_bulk_frames_total") - before
	if frames < 1 || frames > int64(len(cl.Addrs())) {
		t.Fatalf("64-key MGet sent %d frames; want 1..%d (one per contacted server)", frames, len(cl.Addrs()))
	}
	t.Logf("64-key MGet: %d frames across %d servers", frames, len(cl.Addrs()))
}

// TestBulkFramesPinnedAllModes checks the per-server-frame bound for
// every resilience mode, for a 64-key MSet and MGetItems alike. The
// Era-SE-* schemes hold it too: each coordinator receives one frame
// with every key it coordinates.
func TestBulkFramesPinnedAllModes(t *testing.T) {
	cl := startCluster(t, 5)
	for _, mode := range []string{"none", "sync-rep", "async-rep", "era-ce-cd", "era-se-sd", "era-se-cd", "hybrid"} {
		t.Run(mode, func(t *testing.T) {
			c := newClient(t, cl, allModes()[mode])
			pairs := bulkPairs("pin-"+mode, 64, 64)
			frames := func() int64 { return c.Metrics().Snapshot().Counter("ecstore_client_bulk_frames_total") }
			before := frames()
			if err := c.MSet(pairs); err != nil {
				t.Fatal(err)
			}
			// A write is one frame per server a round. Sync-rep writes its
			// three replicas a round each; hybrid writes the replicated form,
			// then purges the erasure-coded one.
			rounds := map[string]int64{"sync-rep": 3, "hybrid": 2}[mode]
			limit := max(rounds, 1) * int64(len(cl.Addrs()))
			n := frames() - before
			if n < 1 || n > limit {
				t.Fatalf("64-key MSet sent %d frames; want 1..%d", n, limit)
			}
			t.Logf("64-key MSet: %d frames", n)
			before = frames()
			found, failed := c.MGetItems(pairKeys(pairs))
			if len(failed) != 0 || len(found) != len(pairs) {
				t.Fatalf("MGetItems: %d found, failed=%v", len(found), failed)
			}
			// Hybrid probes the replicated form only (all hits), so even it
			// stays within one frame per server.
			if n := frames() - before; n < 1 || n > int64(len(cl.Addrs())) {
				t.Fatalf("64-key MGetItems sent %d frames; want 1..%d", n, len(cl.Addrs()))
			}
		})
	}
}

// TestMSetFirstErrorDeterministic is the regression gate for the bulk
// error-reporting bug: MSet used to report "the first error" in map
// iteration order, so the same failure produced a different error (a
// different key) run to run. It must now name the smallest failing key
// in sorted order, every time.
func TestMSetFirstErrorDeterministic(t *testing.T) {
	cl, netem := startNetemCluster(t, 5)
	c := newClient(t, cl, core.Config{
		Resilience: core.ResilienceNone,
		OpTimeout:  300 * time.Millisecond,
		MaxRetries: -1,
	})
	pairs := bulkPairs("det", 32, 64)
	keys := pairKeys(pairs)
	if err := c.MSet(pairs); err != nil {
		t.Fatal(err)
	}

	dead := cl.Addrs()[0]
	netem.Cut(dead)
	defer netem.Restore(dead)

	// The expected first error names the smallest key whose single-op
	// write fails (its placement is the cut server).
	var want string
	for _, key := range keys {
		if err := c.Set(key, pairs[key]); err != nil {
			want = key
			break
		}
	}
	if want == "" {
		t.Skip("no key of this set places on the cut server")
	}

	err1 := c.MSet(pairs)
	err2 := c.MSet(pairs)
	if err1 == nil || err2 == nil {
		t.Fatalf("MSet with a cut primary must fail (got %v, %v)", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("MSet error is nondeterministic:\n  first:  %v\n  second: %v", err1, err2)
	}
	if !strings.Contains(err1.Error(), fmt.Sprintf("%q", want)) {
		t.Fatalf("MSet error %q does not name the first failing key %q", err1, want)
	}

	// MDelete mutates state (live keys really are deleted), so rebuild
	// the identical starting state before the second call.
	derr1 := c.MDelete(keys)
	netem.Restore(dead)
	// The rpc pool holds the cut server suspect until a probe succeeds;
	// wait for it to come back before rebuilding state.
	deadline := time.Now().Add(5 * time.Second)
	for c.Set(want, pairs[want]) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("server %s never recovered after Restore", dead)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.MSet(pairs); err != nil {
		t.Fatal(err)
	}
	netem.Cut(dead)
	derr2 := c.MDelete(keys)
	if derr1 == nil || derr2 == nil {
		t.Fatalf("MDelete with a cut primary must fail (got %v, %v)", derr1, derr2)
	}
	if derr1.Error() != derr2.Error() {
		t.Fatalf("MDelete error is nondeterministic:\n  first:  %v\n  second: %v", derr1, derr2)
	}
	if !strings.Contains(derr1.Error(), fmt.Sprintf("%q", want)) {
		t.Fatalf("MDelete error %q does not name the first failing key %q", derr1, want)
	}
}

// TestMGetDedupesDuplicateKeys is the regression gate for the
// duplicate-futures bug: a key listed N times in a multi-get must be
// fetched once, not N times.
func TestMGetDedupesDuplicateKeys(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["none"])
	if err := c.Set("dup", []byte("v")); err != nil {
		t.Fatal(err)
	}
	keys := []string{"dup", "dup", "dup", "absent-dup", "dup", "absent-dup"}

	before := c.Metrics().Snapshot().Counter("ecstore_client_bulk_subops_total")
	found, failed := c.MGetItems(keys)
	subops := c.Metrics().Snapshot().Counter("ecstore_client_bulk_subops_total") - before

	if len(failed) != 0 {
		t.Fatalf("failed = %v", failed)
	}
	if len(found) != 1 || !bytes.Equal(found["dup"].Value, []byte("v")) {
		t.Fatalf("found = %v", found)
	}
	// Two distinct keys, one replica each in mode "none": exactly two
	// sub-operations, however many times the keys were listed.
	if subops != 2 {
		t.Fatalf("6 listed / 2 distinct keys issued %d sub-ops, want 2", subops)
	}
}

// TestMSetMGetRoundTripAllModes runs the batched bulk cycle through
// every resilience mode: values round-trip, absent keys stay silent,
// MDelete empties, and versions/TTLs ride along.
func TestMSetMGetRoundTripAllModes(t *testing.T) {
	cl := startCluster(t, 5)
	for name, cfg := range allModes() {
		t.Run(name, func(t *testing.T) {
			c := newClient(t, cl, cfg)
			pairs := bulkPairs("cycle-"+name, 24, 1024)
			// Straddle the hybrid threshold so both representations are
			// exercised in one bulk call.
			pairs["cycle-"+name+"-big"] = bytes.Repeat([]byte("B"), 64<<10)
			keys := pairKeys(pairs)
			if err := c.MSet(pairs); err != nil {
				t.Fatal(err)
			}
			found, failed := c.MGetItems(append(keys, "cycle-"+name+"-absent"))
			if len(failed) != 0 {
				t.Fatalf("failed = %v", failed)
			}
			if len(found) != len(pairs) {
				t.Fatalf("found %d of %d", len(found), len(pairs))
			}
			for key, item := range found {
				if !bytes.Equal(item.Value, pairs[key]) {
					t.Fatalf("%s: value differs (%d bytes)", key, len(item.Value))
				}
				if item.Version == 0 {
					t.Fatalf("%s: missing version", key)
				}
			}
			if err := c.MDelete(keys); err != nil {
				t.Fatal(err)
			}
			if got, err := c.MGet(keys); err != nil || len(got) != 0 {
				t.Fatalf("after MDelete: got=%v err=%v", got, err)
			}
			// Deleting already-absent keys reports ErrNotFound, like the
			// single-op Delete.
			if err := c.MDelete(keys[:2]); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("MDelete of absent keys: %v, want ErrNotFound", err)
			}
		})
	}
}

// TestMGetNearCacheAndCoalescing: cached keys must be served without
// wire work, and concurrent bulk reads of the same missing keys must
// coalesce onto one fetch.
func TestMGetNearCacheAndCoalescing(t *testing.T) {
	cl := startCluster(t, 5)
	cfg := allModes()["era-ce-cd"]
	cfg.CacheBytes = 1 << 20
	c := newClient(t, cl, cfg)

	pairs := bulkPairs("cache", 8, 512)
	keys := pairKeys(pairs)
	if err := c.MSet(pairs); err != nil {
		t.Fatal(err)
	}
	// First bulk read fills the cache...
	if _, failed := c.MGetItems(keys); len(failed) != 0 {
		t.Fatalf("failed = %v", failed)
	}
	before := c.Metrics().Snapshot().Counter("ecstore_client_bulk_frames_total")
	// ...so the second sends no frames at all.
	found, failed := c.MGetItems(keys)
	if len(failed) != 0 || len(found) != len(keys) {
		t.Fatalf("cached MGetItems: found=%d failed=%v", len(found), failed)
	}
	if frames := c.Metrics().Snapshot().Counter("ecstore_client_bulk_frames_total") - before; frames != 0 {
		t.Fatalf("fully cached MGetItems sent %d frames, want 0", frames)
	}
	for key, item := range found {
		if !bytes.Equal(item.Value, pairs[key]) {
			t.Fatalf("%s: cached value differs", key)
		}
	}
	// A local write invalidates; the next bulk read refetches.
	fresh := []byte("fresh")
	if err := c.Set(keys[0], fresh); err != nil {
		t.Fatal(err)
	}
	found, _ = c.MGetItems(keys)
	if !bytes.Equal(found[keys[0]].Value, fresh) {
		t.Fatalf("bulk read served stale value after local write")
	}
}
