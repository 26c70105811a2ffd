package core

import (
	"errors"
	"fmt"

	"ecstore/internal/erasure"
	"ecstore/internal/hashring"
	"ecstore/internal/wire"
)

// MigrateReport describes what MigrateKey did for one key.
type MigrateReport struct {
	// Moved reports whether any data actually changed location.
	Moved bool
	// Refilled is how many replica/chunk locations gained a copy.
	Refilled int
	// Dropped is how many stale locations were drained.
	Dropped int
	// BytesMoved is the payload volume of the refills that landed.
	BytesMoved int64
}

// String renders the report on one line.
func (r MigrateReport) String() string {
	return fmt.Sprintf("refilled=%d dropped=%d bytes=%d", r.Refilled, r.Dropped, r.BytesMoved)
}

// migrator is implemented by strategies that can move a key from the
// placement an older ring gave it to the placement the current ring
// demands.
type migrator interface {
	migrate(key string, oldRing *hashring.Ring) (MigrateReport, error)
}

// MigrateKey moves one key's data from the placement oldRing assigned
// it to the placement the client's CURRENT ring assigns it: it locates
// the value (old holders first — that is where the data lives), refills
// the new holders that lack it, and drains the old holders that left
// the placement. Every write is conditional (add-if-absent or
// version-gated) and every drain is version/stripe-conditional, so a
// key being overwritten concurrently is never clobbered and a racing
// write is never deleted — the migration loses the race cleanly and the
// new write, already routed by the current ring, needs no migration.
//
// The per-location requests are epoch-unaware (epoch 0): they address
// servers explicitly from both rings, including departing members that
// would reject placement-routed traffic.
//
// ErrNotFound means the key vanished (deleted or expired) between scan
// and migration — nothing to move.
func (c *Client) MigrateKey(key string, oldRing *hashring.Ring) (MigrateReport, error) {
	m, ok := c.strat.(migrator)
	if !ok {
		return MigrateReport{}, fmt.Errorf("core: resilience mode %v does not support migration", c.cfg.Resilience)
	}
	return m.migrate(key, oldRing)
}

// migrate for replication: find a live copy across the union of old and
// new placements, add-if-absent it to every current holder, then drain
// the holders only the old ring named with version-conditional deletes.
func (r *repStrategy) migrate(key string, oldRing *hashring.Ring) (MigrateReport, error) {
	var report MigrateReport
	newPlacement, _ := r.c.placement(key, r.replicas)
	newPlacement = distinct(newPlacement)
	if len(newPlacement) == 0 {
		return report, ErrUnavailable
	}
	oldPlacement := distinct(placementOn(oldRing, key, r.replicas))
	if sameMembers(oldPlacement, newPlacement) {
		return report, nil
	}
	// Locate a live copy: old holders first (the data lives there), then
	// new (an interrupted earlier migration may already have refilled).
	probe := distinct(append(append([]string{}, oldPlacement...), newPlacement...))
	var value []byte
	var version uint64
	var ttlSecs uint32
	found := false
	reached := 0
	for _, addr := range probe {
		resp, err := r.c.pool.Roundtrip(addr, &wire.Request{Op: wire.OpGet, Key: key})
		switch {
		case err == nil:
			// value outlives the pooled response (it feeds the refills):
			// copy out before releasing.
			value = append([]byte(nil), resp.Value...)
			version = resp.Meta.Stripe
			ttlSecs = resp.TTLSeconds
			found = true
		case errors.Is(err, wire.ErrNotFound):
			reached++
		}
		resp.Release()
		if found {
			break
		}
	}
	if !found {
		if reached == len(probe) {
			return report, ErrNotFound
		}
		return report, fmt.Errorf("%w: no reachable copy of %q to migrate", ErrUnavailable, key)
	}
	// Refill every current holder that lacks the value. CompareAbsent
	// makes the write an add: a holder that already has the key — from
	// an earlier migration pass or a concurrent overwrite — answers
	// Exists and keeps what it has.
	for _, addr := range newPlacement {
		resp, err := r.c.pool.Roundtrip(addr, &wire.Request{
			Op: wire.OpCompareSet, Key: key, Value: value,
			TTLSeconds: ttlSecs, Compare: wire.CompareAbsent,
			Meta: wire.ECMeta{Stripe: version},
		})
		resp.Release()
		switch {
		case err == nil:
			report.Refilled++
			report.BytesMoved += int64(len(value))
		case errors.Is(err, wire.ErrExists):
			// Already holds a copy; nothing to move.
		default:
			return report, err
		}
	}
	// Drain the holders that left the placement, conditional on the
	// version that was copied: a write that raced past the refill keeps
	// its (differently-versioned) copy untouched.
	for _, addr := range oldPlacement {
		if containsAddr(newPlacement, addr) {
			continue
		}
		resp, err := r.c.pool.Roundtrip(addr, &wire.Request{
			Op: wire.OpDelete, Key: key, Compare: version,
		})
		resp.Release()
		switch {
		case err == nil:
			report.Dropped++
		case errors.Is(err, wire.ErrNotFound), errors.Is(err, wire.ErrExists):
			// Already gone, or holds something newer: either way not ours
			// to remove.
		default:
			return report, err
		}
	}
	report.Moved = report.Refilled+report.Dropped > 0
	return report, nil
}

// migrate for erasure coding: collect the stripe's chunks from both
// rings' placements, reconstruct whatever is missing, write each chunk
// to its current holder (version-gated so a newer stripe is never
// downgraded), then drain the old holders whose chunk index moved with
// stripe-conditional deletes.
func (e *ecStrategy) migrate(key string, oldRing *hashring.Ring) (MigrateReport, error) {
	var report MigrateReport
	n := e.k + e.m
	newPlacement, _ := e.c.placement(key, n)
	if newPlacement == nil {
		return report, ErrUnavailable
	}
	oldPlacement := placementOn(oldRing, key, n)
	if sameOrder(oldPlacement, newPlacement) {
		return report, nil
	}
	collector := wire.NewChunkCollector(e.k, n)
	// newStripe[i] / oldStripe[i]: the stripe of the chunk observed at
	// position i's current/old holder (0 = absent or unreadable). They
	// gate the refills and drains below.
	newStripe := make([]uint64, n)
	oldStripe := make([]uint64, n)
	reached, probed := 0, 0
	fetch := func(addr string, i int, stripeAt []uint64) {
		probed++
		resp, err := e.c.pool.Roundtrip(addr, &wire.Request{
			Op: wire.OpGetChunk, Key: wire.ChunkKey(key, i),
		})
		if err != nil {
			resp.Release()
			if errors.Is(err, wire.ErrNotFound) {
				reached++
			}
			return
		}
		reached++
		m, chunk, derr := wire.DecodeChunkPayload(resp.Value)
		if derr != nil {
			resp.Release()
			return
		}
		// The chunk aliases the pooled response body and outlives it
		// (reconstruction and refills come later): copy out first.
		collector.Add(m, append([]byte(nil), chunk...), resp.TTLSeconds)
		stripeAt[i] = m.Stripe
		resp.Release()
	}
	for i := 0; i < n; i++ {
		fetch(newPlacement[i], i, newStripe)
		if oldPlacement != nil && oldPlacement[i] != newPlacement[i] {
			fetch(oldPlacement[i], i, oldStripe)
		}
	}
	win := collector.Best()
	if win == nil {
		if collector.Seen() == 0 && reached == probed {
			return report, ErrNotFound
		}
		// A live overwrite smears the (non-atomic) probe sweep across
		// several stripes, so no single stripe may show K chunks even
		// though the key is perfectly healthy. If every probe answered
		// and the newest chunk observed sits at the NEW placement,
		// strictly newer than anything only the old ring holds, the key
		// is owned by an epoch-current writer: its stripes are already
		// routed by the current ring and there is nothing to refill.
		// Old-placement leftovers CAN go right now, though: every chunk
		// the old ring holds is strictly older than the supersession
		// winner (maxOld < maxNew), so a stripe-conditional delete only
		// removes copies no reader can ever need — a concurrent write
		// that lands after the probe changes the stripe and the delete
		// misses, harmlessly.
		if reached == probed {
			var maxNew, maxOld uint64
			for i := 0; i < n; i++ {
				maxNew = max(maxNew, newStripe[i])
				maxOld = max(maxOld, oldStripe[i])
			}
			if maxNew > maxOld {
				for i := 0; i < n; i++ {
					if oldPlacement == nil || oldPlacement[i] == newPlacement[i] || oldStripe[i] == 0 {
						continue
					}
					resp, err := e.c.pool.Roundtrip(oldPlacement[i], &wire.Request{
						Op: wire.OpDelete, Key: wire.ChunkKey(key, i),
						Meta: wire.ECMeta{Stripe: oldStripe[i]},
					})
					resp.Release()
					if err == nil {
						report.Dropped++
					}
					// Any error (gone already, unreachable) leaves the
					// leftover for a later pass — same as before this drain
					// existed, so never worth failing the migration over.
				}
				report.Moved = report.Dropped > 0
				return report, nil
			}
		}
		return report, fmt.Errorf("%w: no stripe of %q has %d chunks to migrate", ErrUnavailable, key, e.k)
	}
	stripe, chunks := win.Stripe, win.Chunks
	var rebuilt []int
	for i := 0; i < n; i++ {
		if chunks[i] == nil {
			rebuilt = append(rebuilt, i)
		}
	}
	if len(rebuilt) > 0 {
		if err := e.code.Reconstruct(chunks); err != nil {
			return report, err
		}
		e.c.mReconstructs.Inc()
	}
	// Reconstructed chunks come from the shared shard pool; the refill
	// payload encoding copies them, so they go back when we are done.
	defer func() {
		for _, i := range rebuilt {
			erasure.DefaultPool.Put(chunks[i])
		}
	}()
	var firstErr error
	for i := 0; i < n; i++ {
		// Refill position i's current holder unless it already has this
		// stripe's chunk — or something newer (stripe IDs are
		// time-ordered; a newer stripe means a concurrent overwrite that
		// the current ring already routed correctly).
		if newStripe[i] >= stripe {
			continue
		}
		cm := wire.ECMeta{
			ChunkIndex: uint8(i),
			K:          uint8(e.k),
			M:          uint8(e.m),
			TotalLen:   win.TotalLen,
			Stripe:     stripe,
		}
		// Compare = the stripe observed at the holder: an absent chunk is
		// an add (Meta.K>0 permits the insert), a stale one is swapped
		// out atomically, and anything that changed since the probe wins.
		resp, err := e.c.pool.Roundtrip(newPlacement[i], &wire.Request{
			Op: wire.OpCompareSet, Key: wire.ChunkKey(key, i),
			Value:      wire.EncodeChunkPayload(cm, chunks[i]),
			TTLSeconds: win.TTL, Compare: newStripe[i],
			Meta: cm,
		})
		resp.Release()
		switch {
		case err == nil:
			report.Refilled++
			report.BytesMoved += int64(len(chunks[i]))
		case errors.Is(err, wire.ErrExists), errors.Is(err, wire.ErrNotFound):
			// The holder changed under us: whatever it holds now is
			// newer; leave it.
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	// Drain the old holders whose chunk moved away — conditional on the
	// stripe observed there, so only the copy we accounted for goes.
	for i := 0; i < n; i++ {
		if oldPlacement == nil || oldPlacement[i] == newPlacement[i] || oldStripe[i] == 0 {
			continue
		}
		if oldStripe[i] > stripe {
			continue // newer than the migrated stripe: not ours to remove
		}
		resp, err := e.c.pool.Roundtrip(oldPlacement[i], &wire.Request{
			Op: wire.OpDelete, Key: wire.ChunkKey(key, i),
			Meta: wire.ECMeta{Stripe: oldStripe[i]},
		})
		resp.Release()
		switch {
		case err == nil:
			report.Dropped++
		case errors.Is(err, wire.ErrNotFound):
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	report.Moved = report.Refilled+report.Dropped > 0
	if firstErr != nil {
		// Partial migration: report the work done AND the failure so the
		// daemon retries the key next cycle.
		return report, firstErr
	}
	return report, nil
}

// migrate for the hybrid policy: the key lives in exactly one
// representation (modulo interrupted cross-threshold overwrites, which
// scrub resolves); migrate whichever exists.
func (h *hybridStrategy) migrate(key string, oldRing *hashring.Ring) (MigrateReport, error) {
	repReport, repErr := h.rep.migrate(key, oldRing)
	if repErr == nil {
		return repReport, nil
	}
	if !errors.Is(repErr, ErrNotFound) {
		return repReport, repErr
	}
	return h.ec.migrate(key, oldRing)
}

// sameMembers reports whether a and b name the same server set,
// ignoring order (replica placement is a set: every member holds the
// same full copy).
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		if !set[s] {
			return false
		}
	}
	return true
}

// sameOrder reports whether a and b are identical including order —
// chunk placement is positional: chunk i lives at placement[i].
func sameOrder(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsAddr(addrs []string, addr string) bool {
	for _, a := range addrs {
		if a == addr {
			return true
		}
	}
	return false
}
