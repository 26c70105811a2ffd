package memproto

import (
	"errors"
	"strconv"
	"time"

	"ecstore/internal/core"
)

// ClusterBackend adapts the resilient core.Client to the Backend
// interface, making the proxy a memcached-compatible front door to
// the erasure-coded cluster. CAS tokens are the cluster's stripe
// version IDs, so a memcached cas round-trips into a real conditional
// write on the stripe machinery (DESIGN §10).
type ClusterBackend struct {
	// Client is the resilient cluster client.
	Client *core.Client
}

var _ Backend = (*ClusterBackend)(nil)

// translate maps cluster errors onto the Backend sentinel vocabulary.
func translate(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrNotFound):
		return ErrCacheMiss
	case errors.Is(err, core.ErrCASConflict):
		return ErrCASConflict
	default:
		return err
	}
}

// Set stores through the cluster with the configured resilience and
// returns the new item version as the CAS token.
func (b *ClusterBackend) Set(key string, value []byte, ttl time.Duration) (uint64, error) {
	version, err := b.Client.SetVersion(key, value, ttl)
	return version, translate(err)
}

// Get reads through the cluster, reconstructing from parity under
// failures, and carries the version and remaining TTL along.
func (b *ClusterBackend) Get(key string) (Item, error) {
	item, err := b.Client.Gets(key)
	if err != nil {
		return Item{}, translate(err)
	}
	return Item{Value: item.Value, CAS: item.Version, TTL: item.TTL}, nil
}

// GetMulti fans the whole batch into one pipelined cluster read and
// classifies each key as found, absent, or failed, building its maps
// straight from the read's per-key results.
func (b *ClusterBackend) GetMulti(keys []string) (map[string]Item, map[string]error) {
	found := make(map[string]Item, len(keys))
	var errs map[string]error
	b.Client.MGetEach(keys, func(key string, item core.Item, err error) {
		switch {
		case err == nil:
			found[key] = Item{Value: item.Value, CAS: item.Version, TTL: item.TTL}
		case errors.Is(err, core.ErrNotFound):
		default:
			if errs == nil {
				errs = make(map[string]error)
			}
			errs[key] = translate(err)
		}
	})
	return found, errs
}

// Cas performs a conditional write against the stored stripe version;
// cas == 0 is an add.
func (b *ClusterBackend) Cas(key string, value []byte, ttl time.Duration, cas uint64) (uint64, error) {
	version, err := b.Client.Cas(key, value, ttl, cas)
	return version, translate(err)
}

// Delete removes the key cluster-wide.
func (b *ClusterBackend) Delete(key string) (bool, error) {
	err := b.Client.Delete(key)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, core.ErrNotFound):
		return false, nil
	default:
		return false, err
	}
}

// DeleteCas removes the key cluster-wide only while its stored stripe
// version still equals cas — the wire-level conditional delete, checked
// and applied under one shard lock at every holder.
func (b *ClusterBackend) DeleteCas(key string, cas uint64) error {
	return translate(b.Client.DeleteCas(key, cas))
}

// Flush drops every item on every configured server.
func (b *ClusterBackend) Flush() error {
	return b.Client.FlushAll()
}

// Stats aggregates store statistics across the servers of the client's
// current view, asked in one round.
func (b *ClusterBackend) Stats() map[string]string {
	out := map[string]string{"proxy": "ecstore"}
	var items, used, hits, misses, evictions int64
	live := 0
	for _, st := range b.Client.StatsOf(b.Client.View().Servers...) {
		if st.Err != nil {
			continue
		}
		live++
		items += st.Items
		used += st.UsedBytes
		hits += st.Hits
		misses += st.Misses
		evictions += st.Evictions
	}
	out["live_servers"] = strconv.Itoa(live)
	out["curr_items"] = strconv.FormatInt(items, 10)
	out["bytes"] = strconv.FormatInt(used, 10)
	out["get_hits"] = strconv.FormatInt(hits, 10)
	out["get_misses"] = strconv.FormatInt(misses, 10)
	out["evictions"] = strconv.FormatInt(evictions, 10)
	// Client-side hot-key read scaling (DESIGN §11): how much of the
	// read load the proxy absorbed without dialing the cluster.
	snap := b.Client.Metrics().Snapshot()
	out["nearcache_hits"] = strconv.FormatInt(snap.Counter("ecstore_client_nearcache_hits_total"), 10)
	out["nearcache_misses"] = strconv.FormatInt(snap.Counter("ecstore_client_nearcache_misses_total"), 10)
	out["coalesced_reads"] = strconv.FormatInt(snap.Counter("ecstore_client_coalesced_reads_total"), 10)
	// Bulk batching (DESIGN §12): frames vs sub-operations shows how
	// much wire traffic the per-server batching is saving — subops per
	// frame is the average batch size.
	out["bulk_frames"] = strconv.FormatInt(snap.Counter("ecstore_client_bulk_frames_total"), 10)
	out["bulk_subops"] = strconv.FormatInt(snap.Counter("ecstore_client_bulk_subops_total"), 10)
	return out
}
