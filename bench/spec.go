package main

import (
	"fmt"
	"math/rand"

	"ecstore/internal/core"
	"ecstore/internal/memproto"
	"ecstore/internal/ycsb"
)

// spec is one workload's fixed shape. Nothing here depends on the
// seed; the seed picks keys (and so placement), value bytes and the op
// stream.
type spec struct {
	name string
	// why is the one line BENCHMARK.json records.
	why                 string
	resilience          core.Resilience
	storeBytesPerServer int64 // 0 = unlimited
	window              int   // core.Config.Window; 0 = default
	cacheBytes          int64 // the measured client's near cache; 0 = off
	records             int   // keys preloaded
	valueSize           int   // nominal value bytes (±1/32 per key)
	// warmOps client calls warm the stack up before the timed phase: a
	// fixed count, not a time, so the timed phase starts from the same
	// state on every run of a seed. countOps is the count window: the
	// first countOps calls of the timed phase, over which count-type
	// per-layer metrics are taken so that they repeat exactly. Both are
	// sized for this sandbox (≈1.5 s and ≈3 s); a machine too slow to
	// reach them is reported, not failed.
	warmOps, countOps int
	build             func(sp *spec, st *stack, g *valueGen) workload
}

const (
	degradedRing   = 512 // degraded-64k's write-only keys
	degradedKilled = 1   // kv-1 loses its chunks
	mgetKeys       = 16
	proxyBigSize   = 32 << 10 // every 10th proxy-mget key; above the hybrid cut-over
)

var specs = []*spec{
	{
		name:       "ycsb-b-1k",
		why:        "30k x 1 KB erasure-coded records, YCSB-B 95/5 zipfian, one blocking client: per-message cost (rpc, wire, transport, server, store) dominates, the codec does almost nothing",
		resilience: core.ResilienceErasure,
		records:    30000,
		valueSize:  1 << 10,
		warmOps:    25000,
		countOps:   40000,
		build:      buildYCSB,
	},
	{
		name:                "burst-1m",
		why:                 "bursts of 16 fresh 1 MB keys, ISet then IGet with 4 in flight, servers capped and evicting: bytes dominate (erasure, bufpool, copies, eviction), the mirror image of ycsb-b-1k",
		resilience:          core.ResilienceErasure,
		storeBytesPerServer: 64 << 20,
		window:              burstWindow,
		records:             64,
		valueSize:           1 << 20,
		warmOps:             40 * 2 * burstKeys,
		countOps:            60 * 2 * burstKeys,
		build: func(sp *spec, st *stack, g *valueGen) workload {
			return &burstWorkload{sp: sp, st: st, g: g}
		},
	},
	{
		name:       "degraded-64k",
		why:        "3000 x 64 KB records, one server restarted empty: 60% of uniform reads need the second fetch round and reconstruction; writes go to a separate ring so reads never heal",
		resilience: core.ResilienceErasure,
		records:    3000,
		valueSize:  64 << 10,
		warmOps:    4000,
		countOps:   8000,
		build:      buildDegraded,
	},
	{
		name:       "proxy-mget",
		why:        "hybrid mode behind the memcached proxy over TCP, 16 MB near cache under 82 MB of data, 16-key zipfian multi-gets beside single sets: the only path through memproto, nearcache, bulk ops, replication",
		resilience: core.ResilienceHybrid,
		cacheBytes: 16 << 20,
		records:    20000,
		valueSize:  1 << 10,
		warmOps:    4000,
		countOps:   6000,
		build:      buildProxy,
	},
}

// idealStored is what a value of size bytes occupies at the mode's
// ideal expansion: F copies when the hybrid policy replicates it, N/K
// when it is erasure-coded. What the stores hold beyond that is
// overhead: padding, chunk headers, keys, per-item bookkeeping.
func (sp *spec) idealStored(size int) int64 {
	if sp.resilience == core.ResilienceHybrid && size < core.DefaultHybridThreshold {
		return int64(size) * replicas
	}
	return int64(size) * (ecK + ecM) / ecK
}

// itemBytes is the size of what the servers keep per store item for the
// workload's commonest value: a chunk with its header, or a whole
// replica with the proxy's flags prefix.
func (sp *spec) itemBytes() int {
	if sp.resilience == core.ResilienceHybrid {
		return sp.valueSize + 4
	}
	return (sp.valueSize+ecK-1)/ecK + 20
}

// chooseSpecs is the named workload, or all of them for "".
func chooseSpecs(name string) ([]*spec, error) {
	if name == "" {
		return specs, nil
	}
	if sp := specByName(name); sp != nil {
		return []*spec{sp}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

func newKV(sp *spec, st *stack, g *valueGen) *kvWorkload {
	return &kvWorkload{sp: sp, st: st, g: g}
}

// addKeys appends n keys of family to the key table, sized around
// nominal(i).
func (w *kvWorkload) addKeys(family string, n int, nominal func(i int) int) {
	for i := 0; i < n; i++ {
		key := w.g.key(family, i)
		w.keys = append(w.keys, key)
		w.sizes = append(w.sizes, w.g.size(key, nominal(i)))
	}
	w.ver = make([]uint32, len(w.keys))
}

// swapClient replaces the preload client with the measured one.
func (w *kvWorkload) swapClient(cacheBytes int64) error {
	if w.st.client != nil {
		w.st.client.Close()
	}
	var err error
	w.st.client, err = w.st.newClient(cacheBytes)
	return err
}

func buildYCSB(sp *spec, st *stack, g *valueGen) workload {
	w := newKV(sp, st, g)
	w.addKeys("y", sp.records, func(int) int { return sp.valueSize })
	zipf := ycsb.NewScrambledZipfian(uint64(sp.records))
	w.draw = func(rng *rand.Rand) op {
		if rng.Float64() < 0.05 {
			return op{kind: opSet, key: int(zipf.Next(rng))}
		}
		return op{kind: opGet, key: int(zipf.Next(rng))}
	}
	w.prepare = func(rec *recorder) error {
		if err := w.swapClient(0); err != nil {
			return err
		}
		if err := w.preload(sp.records, rec); err != nil {
			return err
		}
		return w.swapClient(0)
	}
	return w
}

func buildDegraded(sp *spec, st *stack, g *valueGen) workload {
	w := newKV(sp, st, g)
	// Entries [0, records) are read and never written after preload;
	// entries [records, records+degradedRing) are written and never
	// read. A read key that got overwritten would have all five chunks
	// again and the degraded share would decay during the run.
	w.addKeys("d", sp.records, func(int) int { return sp.valueSize })
	w.addKeys("w", degradedRing, func(int) int { return sp.valueSize })
	w.draw = func(rng *rand.Rand) op {
		if rng.Float64() < 0.10 {
			k := sp.records + w.ring
			w.ring = (w.ring + 1) % degradedRing
			return op{kind: opSet, key: k}
		}
		return op{kind: opGet, key: rng.Intn(sp.records)}
	}
	w.prepare = func(rec *recorder) error {
		if err := w.swapClient(0); err != nil {
			return err
		}
		if err := w.preload(sp.records, rec); err != nil {
			return err
		}
		// The server comes back empty: its chunks are lost but it
		// accepts writes, the window before scrub catches up. (Left
		// down, every EC Set would fail: writes need all N holders.)
		st.cluster.Kill(degradedKilled)
		if err := st.cluster.Restart(degradedKilled); err != nil {
			return err
		}
		return w.swapClient(0)
	}
	return w
}

func buildProxy(sp *spec, st *stack, g *valueGen) workload {
	w := newKV(sp, st, g)
	w.addKeys("p", sp.records, func(i int) int {
		if i%10 == 0 {
			return proxyBigSize // erasure-coded; the rest replicate 3x
		}
		return sp.valueSize
	})
	zipf := ycsb.NewScrambledZipfian(uint64(sp.records))
	w.draw = func(rng *rand.Rand) op {
		if rng.Float64() < 0.20 {
			return op{kind: opSet, key: int(zipf.Next(rng))}
		}
		ks := w.scratch[:0]
	draw:
		for len(ks) < mgetKeys {
			k := int(zipf.Next(rng))
			for _, have := range ks {
				if have == k {
					continue draw
				}
			}
			ks = append(ks, k)
		}
		w.scratch = ks
		return op{kind: opMGet, keys: ks}
	}
	// serve puts a proxy in front of a new client and connects to it.
	serve := func(cacheBytes int64) error {
		if w.conn != nil {
			w.conn.close()
		}
		st.stopProxy()
		if err := w.swapClient(cacheBytes); err != nil {
			return err
		}
		var backend memproto.Backend = &memproto.ClusterBackend{Client: st.client}
		if st.net.log != nil {
			backend = &tracedBackend{Backend: backend, log: st.net.log}
		}
		if err := st.startProxy(backend); err != nil {
			return err
		}
		var err error
		w.conn, err = dialProxy(st.proxy.Addr())
		return err
	}
	w.prepare = func(rec *recorder) error {
		if err := serve(0); err != nil {
			return err
		}
		if err := w.preload(sp.records, rec); err != nil {
			return err
		}
		return serve(sp.cacheBytes)
	}
	return w
}
