package core_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/wire"
)

// deltaCfg returns mode's config with the near cache enabled and a
// residency window long enough that a test's own writes stay usable as
// delta bases.
func deltaCfg(mode string) core.Config {
	cfg := allModes()[mode]
	cfg.CacheBytes = 64 << 20
	cfg.CacheMaxAge = time.Minute
	return cfg
}

func deltaWrites(c *core.Client) int64 {
	return c.Metrics().Snapshot().Counter("ecstore_client_delta_writes_total")
}

func deltaFallbacks(c *core.Client, reason string) int64 {
	snap := c.Metrics().Snapshot()
	if reason == "" {
		return snap.Counter("ecstore_client_delta_fallbacks_total")
	}
	return snap.Counter(`ecstore_client_delta_fallbacks_total{reason="` + reason + `"}`)
}

// editValue returns a copy of value with span bytes flipped at off.
func editValue(value []byte, off, span int) []byte {
	out := append([]byte(nil), value...)
	for i := off; i < off+span && i < len(out); i++ {
		out[i] ^= 0x5A
	}
	return out
}

// findChunkHolder locates the server currently storing key's chunk i.
func findChunkHolder(t *testing.T, cl *cluster.Cluster, key string, i int) int {
	t.Helper()
	ck := wire.ChunkKey(key, i)
	for s := 0; s < len(cl.Addrs()); s++ {
		if _, ok := cl.Server(s).Store().Get(ck); ok {
			return s
		}
	}
	t.Fatalf("no server holds chunk %d of %q", i, key)
	return -1
}

// restampChunk rewrites key's chunk i in place with a different stripe
// ID (same chunk bytes), simulating a holder whose chunk belongs to
// another write.
func restampChunk(t *testing.T, cl *cluster.Cluster, key string, i int, stripe uint64) {
	t.Helper()
	s := findChunkHolder(t, cl, key, i)
	ck := wire.ChunkKey(key, i)
	payload, _ := cl.Server(s).Store().Get(ck)
	meta, chunk, err := wire.DecodeChunkPayload(payload)
	if err != nil {
		t.Fatalf("decode chunk %d: %v", i, err)
	}
	meta.Stripe = stripe
	if err := cl.Server(s).Store().SetVersioned(ck, wire.EncodeChunkPayload(meta, chunk), 0, stripe); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaWriteSmallEdit is the headline path: a small edit of a
// cached EC value ships K+M sparse patches, and the result is
// byte-identical to a full re-stripe — verified through a separate
// cache-less client so the bytes really come from the cluster. Runs
// against a client-encode and a server-encode scheme (delta writes are
// always client-encoded, like EC CAS) and the hybrid policy's EC side.
func TestDeltaWriteSmallEdit(t *testing.T) {
	cl := startCluster(t, 5)
	for _, mode := range []string{"era-ce-cd", "era-se-sd", "hybrid"} {
		t.Run(mode, func(t *testing.T) {
			c := newClient(t, cl, deltaCfg(mode))
			verify := newClient(t, cl, allModes()[mode])

			key := "delta-small-" + mode
			value := make([]byte, 256<<10)
			rand.New(rand.NewSource(3)).Read(value)
			if err := c.Set(key, value); err != nil {
				t.Fatal(err)
			}
			if n := deltaWrites(c); n != 0 {
				t.Fatalf("initial Set took the delta path (%d)", n)
			}

			// Chain of small edits: every overwrite after the first must
			// find the previous value as its base (write-through refresh)
			// and go out as patches.
			for round := 1; round <= 3; round++ {
				value = editValue(value, round*1000, 64)
				if err := c.Set(key, value); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if n := deltaWrites(c); n != int64(round) {
					t.Fatalf("round %d: delta_writes_total = %d", round, n)
				}
				got, err := verify.Get(key)
				if err != nil {
					t.Fatalf("round %d: verify Get: %v", round, err)
				}
				if !bytes.Equal(got, value) {
					t.Fatalf("round %d: cluster value differs after delta write", round)
				}
			}
			if saved := c.Metrics().Snapshot().Counter("ecstore_client_delta_bytes_saved_total"); saved <= 0 {
				t.Fatalf("delta_bytes_saved_total = %d", saved)
			}
		})
	}
}

// TestDeltaCas: a CAS whose token matches the cached base goes out as
// version-conditional patches; the CAS semantics (success installs,
// stale token conflicts) are unchanged.
func TestDeltaCas(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, deltaCfg("era-ce-cd"))

	key := "delta-cas"
	v1 := make([]byte, 64<<10)
	rand.New(rand.NewSource(4)).Read(v1)
	ver1, err := c.SetVersion(key, v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	v2 := editValue(v1, 17, 100)
	ver2, err := c.Cas(key, v2, 0, ver1)
	if err != nil {
		t.Fatalf("delta CAS: %v", err)
	}
	if deltaWrites(c) != 1 {
		t.Fatalf("delta_writes_total = %d after CAS", deltaWrites(c))
	}
	item, err := c.Gets(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(item.Value, v2) || item.Version != ver2 {
		t.Fatalf("post-CAS read: %d bytes at version %d, want version %d", len(item.Value), item.Version, ver2)
	}

	// Stale token: the cached base is at ver2 now, so the delta path
	// steps aside and the full path reports the conflict.
	if _, err := c.Cas(key, editValue(v2, 5, 5), 0, ver1); !errors.Is(err, core.ErrCASConflict) {
		t.Fatalf("stale-token CAS: %v, want ErrCASConflict", err)
	}
	if got, _ := newClient(t, cl, allModes()["era-ce-cd"]).Get(key); !bytes.Equal(got, v2) {
		t.Fatal("value moved after a conflicted CAS")
	}
}

// TestDeltaFallbacks drives every client-side bail-out and checks each
// converges to exactly the full re-stripe result with zero leaked
// frame-pool leases.
func TestDeltaFallbacks(t *testing.T) {
	baseline := poolDelta()
	cl := startCluster(t, 5)
	verify := newClient(t, cl, allModes()["era-ce-cd"])
	rng := rand.New(rand.NewSource(5))

	t.Run("resize", func(t *testing.T) {
		c := newClient(t, cl, deltaCfg("era-ce-cd"))
		key := "delta-fb-resize"
		v1 := make([]byte, 4<<10)
		rng.Read(v1)
		if err := c.Set(key, v1); err != nil {
			t.Fatal(err)
		}
		v2 := make([]byte, 8<<10)
		rng.Read(v2)
		if err := c.Set(key, v2); err != nil {
			t.Fatal(err)
		}
		if n := deltaFallbacks(c, "resize"); n != 1 {
			t.Fatalf("resize fallbacks = %d", n)
		}
		if n := deltaWrites(c); n != 0 {
			t.Fatalf("delta_writes_total = %d", n)
		}
		if got, _ := verify.Get(key); !bytes.Equal(got, v2) {
			t.Fatal("resized value did not land")
		}
	})

	t.Run("oversized", func(t *testing.T) {
		c := newClient(t, cl, deltaCfg("era-ce-cd"))
		key := "delta-fb-oversized"
		v1 := make([]byte, 64<<10)
		rng.Read(v1)
		if err := c.Set(key, v1); err != nil {
			t.Fatal(err)
		}
		v2 := make([]byte, 64<<10)
		rng.Read(v2) // a full rewrite: the patch would exceed value/2
		if err := c.Set(key, v2); err != nil {
			t.Fatal(err)
		}
		if n := deltaFallbacks(c, "oversized"); n != 1 {
			t.Fatalf("oversized fallbacks = %d", n)
		}
		if got, _ := verify.Get(key); !bytes.Equal(got, v2) {
			t.Fatal("oversized overwrite did not land")
		}
	})

	t.Run("stale-base-conflict", func(t *testing.T) {
		a := newClient(t, cl, deltaCfg("era-ce-cd"))
		b := newClient(t, cl, deltaCfg("era-ce-cd"))
		key := "delta-fb-conflict"
		v1 := make([]byte, 32<<10)
		rng.Read(v1)
		if err := a.Set(key, v1); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Get(key); err != nil { // b caches v1 as its base
			t.Fatal(err)
		}
		v2 := editValue(v1, 0, 64)
		if err := a.Set(key, v2); err != nil { // cluster moves past b's base
			t.Fatal(err)
		}
		v3 := editValue(v1, 1000, 64)
		if err := b.Set(key, v3); err != nil { // b's delta conflicts, full path wins
			t.Fatal(err)
		}
		if n := deltaFallbacks(b, "conflict"); n != 1 {
			t.Fatalf("conflict fallbacks = %d", n)
		}
		if n := deltaWrites(b); n != 0 {
			t.Fatalf("b's delta_writes_total = %d", n)
		}
		if got, _ := verify.Get(key); !bytes.Equal(got, v3) {
			t.Fatal("conflicted Set did not converge to the full-re-stripe result")
		}
	})

	t.Run("missing-chunk", func(t *testing.T) {
		c := newClient(t, cl, deltaCfg("era-ce-cd"))
		key := "delta-fb-missing"
		v1 := make([]byte, 32<<10)
		rng.Read(v1)
		if err := c.Set(key, v1); err != nil {
			t.Fatal(err)
		}
		// A holder loses its chunk (eviction/restart): the delta cannot
		// re-materialise it, the full path can.
		s := findChunkHolder(t, cl, key, 0)
		cl.Server(s).Store().Delete(wire.ChunkKey(key, 0))

		v2 := editValue(v1, 5000, 32)
		if err := c.Set(key, v2); err != nil {
			t.Fatal(err)
		}
		if n := deltaFallbacks(c, "missing"); n != 1 {
			t.Fatalf("missing fallbacks = %d", n)
		}
		if got, _ := verify.Get(key); !bytes.Equal(got, v2) {
			t.Fatal("missing-chunk overwrite did not converge")
		}
		if _, ok := cl.Server(s).Store().Get(wire.ChunkKey(key, 0)); !ok {
			t.Fatal("full re-stripe did not re-materialise the lost chunk")
		}
	})

	waitPoolBaseline(t, baseline)
}

// TestDeltaCasConflictUnwindRestoresBase pins the inverse-patch unwind:
// when a delta CAS loses to one holder after the other four already
// committed, the committed patches must be rolled back — XOR is its own
// inverse — so the cluster still decodes the ORIGINAL value. Without
// the rollback the four new-stripe chunks (>= K) would decode the new
// value even though the CAS reported a conflict.
func TestDeltaCasConflictUnwindRestoresBase(t *testing.T) {
	baseline := poolDelta()
	cl := startCluster(t, 5)
	c := newClient(t, cl, deltaCfg("era-ce-cd"))

	key := "delta-unwind"
	v1 := make([]byte, 48<<10)
	rand.New(rand.NewSource(6)).Read(v1)
	ver1, err := c.SetVersion(key, v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One holder's chunk belongs to "another write": same bytes,
	// different stripe. Its version check will answer Exists.
	restampChunk(t, cl, key, 4, ver1+12345)

	v2 := editValue(v1, 100, 40)
	if _, err := c.Cas(key, v2, 0, ver1); !errors.Is(err, core.ErrCASConflict) {
		t.Fatalf("CAS against a moved holder: %v, want ErrCASConflict", err)
	}
	if n := deltaWrites(c); n != 0 {
		t.Fatalf("delta_writes_total = %d after conflicted CAS", n)
	}

	got, err := newClient(t, cl, allModes()["era-ce-cd"]).Gets(key)
	if err != nil {
		t.Fatalf("read after conflicted CAS: %v", err)
	}
	if !bytes.Equal(got.Value, v1) {
		t.Fatal("conflicted delta CAS left the new value readable — unwind failed")
	}
	if got.Version != ver1 {
		t.Fatalf("read version %d, want the base %d", got.Version, ver1)
	}
	waitPoolBaseline(t, baseline)
}

// TestDeltaMixedVersionRefusal pins the read-path invariant the delta
// protocol leans on: chunks of DIFFERENT stripe versions are never
// blended into one decode. With the five chunks split 2/2/1 across
// three stripes, no stripe reaches K=3 and the read must refuse —
// returning unavailability, never a franken-value.
func TestDeltaMixedVersionRefusal(t *testing.T) {
	cl := startCluster(t, 5)
	cfg := allModes()["era-ce-cd"]
	cfg.MaxRetries = -1
	cfg.OpTimeout = 2 * time.Second
	c := newClient(t, cl, cfg)

	key := "delta-mixed"
	v1 := make([]byte, 30<<10)
	rand.New(rand.NewSource(7)).Read(v1)
	ver1, err := c.SetVersion(key, v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks 0,1 stay at ver1; 2,3 move to a second stripe; 4 to a
	// third. Every chunk is individually valid (right CRC, right
	// geometry) — only the stripe IDs disagree.
	restampChunk(t, cl, key, 2, ver1+1)
	restampChunk(t, cl, key, 3, ver1+1)
	restampChunk(t, cl, key, 4, ver1+2)

	_, err = c.Get(key)
	if err == nil {
		t.Fatal("Get decoded a mixed-version stripe")
	}
	if !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("mixed-version read: %v, want ErrUnavailable", err)
	}
}

// TestDeltaReadBeforeWrite pins that there is none: the delta path
// takes its base from the near cache only. A cache-less client's
// overwrite of a large key is one round of K+M chunk writes — no chunk
// read reaches any server, and the delta path neither runs nor counts
// a fallback — while a cached client's small edit still ships patches.
func TestDeltaReadBeforeWrite(t *testing.T) {
	cl := startCluster(t, 5)
	rng := rand.New(rand.NewSource(8))
	serverOps := func(op string) (n int64) {
		for i := range cl.Addrs() {
			n += cl.Server(i).Metrics().Snapshot().Counter(`ecstore_server_ops_total{op="` + op + `"}`)
		}
		return n
	}

	c := newClient(t, cl, allModes()["era-ce-cd"])
	key := "delta-rbw"
	v1 := make([]byte, 256<<10)
	rng.Read(v1)
	if err := c.Set(key, v1); err != nil {
		t.Fatal(err)
	}
	sets, gets := serverOps("set-chunk"), serverOps("get-chunk")
	v2 := editValue(v1, 9, 16)
	if err := c.Set(key, v2); err != nil {
		t.Fatal(err)
	}
	if n := serverOps("set-chunk") - sets; n != 5 {
		t.Errorf("cache-less overwrite: %d set-chunk ops at the servers, want K+M = 5", n)
	}
	if n := serverOps("get-chunk") - gets; n != 0 {
		t.Errorf("cache-less overwrite: %d get-chunk ops at the servers, want 0", n)
	}
	if n := deltaWrites(c); n != 0 {
		t.Errorf("delta_writes_total = %d without a near cache", n)
	}
	if n := deltaFallbacks(c, ""); n != 0 {
		t.Errorf("delta_fallbacks_total = %d without a near cache", n)
	}
	if got, _ := newClient(t, cl, allModes()["era-ce-cd"]).Get(key); !bytes.Equal(got, v2) {
		t.Fatal("cache-less overwrite did not land")
	}

	cached := newClient(t, cl, deltaCfg("era-ce-cd"))
	if err := cached.Set(key, v2); err != nil {
		t.Fatal(err)
	}
	if err := cached.Set(key, editValue(v2, 9, 16)); err != nil {
		t.Fatal(err)
	}
	if n := deltaWrites(cached); n != 1 {
		t.Fatalf("cached client's small edit: delta_writes_total = %d, want 1", n)
	}
}

// TestDeltaDisabled: a client without a near cache has no delta path —
// no delta frames, no fallback accounting, identical results.
func TestDeltaDisabled(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	deltaFrames := func() (n int64) {
		for i := range cl.Addrs() {
			n += cl.Server(i).Metrics().Snapshot().Counter(`ecstore_server_ops_total{op="apply-delta"}`)
		}
		return n
	}

	key := "delta-disabled"
	v1 := make([]byte, 32<<10)
	rand.New(rand.NewSource(9)).Read(v1)
	if err := c.Set(key, v1); err != nil {
		t.Fatal(err)
	}
	v2 := editValue(v1, 3, 8)
	if err := c.Set(key, v2); err != nil {
		t.Fatal(err)
	}
	if n := deltaWrites(c); n != 0 {
		t.Fatalf("delta_writes_total = %d with the path disabled", n)
	}
	if n := deltaFrames(); n != 0 {
		t.Fatalf("%d apply-delta frames reached the servers with the path disabled", n)
	}
	if n := deltaFallbacks(c, ""); n != 0 {
		t.Fatalf("delta_fallbacks_total = %d with the path disabled", n)
	}
	if got, _ := c.Get(key); !bytes.Equal(got, v2) {
		t.Fatal("overwrite with delta disabled did not land")
	}
}

// TestBulkFillFeedsDelta pins the bulk-path follow-up: a near-cache
// fill from an MGetItems miss is a usable delta base, so a subsequent
// overwrite of a bulk-read key ships patches — while an overwrite of a
// key this client has never read stays on the full path.
func TestBulkFillFeedsDelta(t *testing.T) {
	cl := startCluster(t, 5)
	w := newClient(t, cl, allModes()["era-ce-cd"])
	rng := rand.New(rand.NewSource(10))

	values := map[string][]byte{}
	var keys []string
	for i := 0; i < 4; i++ {
		key := "delta-bulk-" + string(rune('a'+i))
		v := make([]byte, 16<<10)
		rng.Read(v)
		values[key] = v
		keys = append(keys, key)
		if err := w.Set(key, v); err != nil {
			t.Fatal(err)
		}
	}
	unread := "delta-bulk-unread"
	if err := w.Set(unread, values[keys[0]]); err != nil {
		t.Fatal(err)
	}

	c := newClient(t, cl, deltaCfg("era-ce-cd"))
	found, failed := c.MGetItems(keys)
	if len(failed) != 0 || len(found) != len(keys) {
		t.Fatalf("MGetItems: found %d, failed %v", len(found), failed)
	}
	for _, key := range keys {
		if err := c.Set(key, editValue(values[key], 100, 24)); err != nil {
			t.Fatal(err)
		}
	}
	if n := deltaWrites(c); n != int64(len(keys)) {
		t.Fatalf("delta_writes_total = %d after overwriting %d bulk-read keys", n, len(keys))
	}
	// Counter-delta: the never-read key has no base in the near cache,
	// so its overwrite is a full re-stripe.
	if err := c.Set(unread, editValue(values[keys[0]], 100, 24)); err != nil {
		t.Fatal(err)
	}
	if n := deltaWrites(c); n != int64(len(keys)) {
		t.Fatalf("delta_writes_total moved to %d on an unread key", n)
	}
	if n := deltaFallbacks(c, "no-base"); n != 1 {
		t.Fatalf("no-base fallbacks = %d", n)
	}
}

// TestDeltaFaultLeases is the frame-pool lease sweep over the delta
// error paths: a holder cut or hung mid-delta must fail the round,
// trigger the rollback, fall back — and strand not a single pooled
// buffer (patches, unwind patches, full-path chunk payloads alike).
func TestDeltaFaultLeases(t *testing.T) {
	baseline := poolDelta()
	cl, netem := startNetemCluster(t, 5)
	cfg := deltaCfg("era-ce-cd")
	cfg.OpTimeout = 300 * time.Millisecond
	cfg.MaxRetries = -1
	c := newClient(t, cl, cfg)

	key := "delta-fault"
	value := make([]byte, 128<<10)
	rand.New(rand.NewSource(11)).Read(value)
	if err := c.Set(key, value); err != nil {
		t.Fatal(err)
	}

	// Cut: the delta round's sends to the dead holder fail or time out;
	// the unwind's do too. The write may legitimately error — it must
	// return and leak nothing.
	dead := cl.Addrs()[0]
	netem.Cut(dead)
	value = editValue(value, 50, 16)
	_ = c.Set(key, value)
	netem.Restore(dead)

	// Hang: frames are accepted and never answered — the timeout path.
	hung := cl.Addrs()[1]
	netem.Hang(hung)
	value = editValue(value, 5000, 16)
	_ = c.Set(key, value)
	netem.Restore(hung)

	// Healthy again: the path must recover and the final value must be
	// fully readable. The restored server may sit in the failure
	// detector's suspect state until a probe heals it, so retry within
	// a grace period.
	value = editValue(value, 90000, 16)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Set(key, value); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("Set never recovered after restore: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, err := newClient(t, cl, allModes()["era-ce-cd"]).Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("value diverged across delta fault rounds")
	}
	waitPoolBaseline(t, baseline)
}
