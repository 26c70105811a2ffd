package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/cluster"
	"ecstore/internal/erasure"
	"ecstore/internal/nearcache"
	"ecstore/internal/rpc"
	"ecstore/internal/store"
	"ecstore/internal/wire"
)

// Probes time each layer's public functions in isolation, at the sizes
// the workloads use. They say what a layer costs when nothing else
// runs; the spans and registries say what it cost inside a workload.

// timeIt returns the median ns per call of fn: batches sized to last
// about 10 ms, seven of them, so one preempted batch does not decide
// the number.
func timeIt(fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if el := time.Since(start); el >= 10*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, 7)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

// allocsPer is the heap allocations per call of fn.
func allocsPer(fn func()) float64 {
	const n = 200
	fn() // warm pools
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / n
}

func mbPerS(bytes int, ns float64) float64 { return float64(bytes) / ns * 1e9 / 1e6 }

// runProbes measures the probe metrics. chunkBytes is the size of what
// the workload keeps per store item.
func runProbes(seed int64, chunkBytes int) (map[string]float64, error) {
	m := map[string]float64{}
	g := newValueGen(seed)

	code, err := erasure.NewRSVan(ecK, ecM, erasure.WithPool(erasure.DefaultPool))
	if err != nil {
		return nil, err
	}
	for _, sz := range []struct {
		tag string
		n   int
	}{{"1k", 1 << 10}, {"64k", 64 << 10}, {"1m", 1 << 20}} {
		value := g.make("probe", 1, sz.n)
		// The Set side as core drives it: split into pooled shards,
		// encode parity, release.
		encode := func() {
			ps := erasure.SplitPooled(value, ecK, ecM, nil)
			if err := code.Encode(ps.Shards); err != nil {
				panic(err)
			}
			ps.Release()
		}
		m["erasure.encode_mb_per_s_"+sz.tag] = mbPerS(sz.n, timeIt(encode))
		m["erasure.encode_allocs_"+sz.tag] = allocsPer(encode)

		shards := erasure.Split(value, ecK, ecM)
		if err := code.Encode(shards); err != nil {
			return nil, err
		}
		// The degraded Get: one data shard lost, rebuilt from parity.
		work := make([][]byte, len(shards))
		m["erasure.reconstruct_mb_per_s_"+sz.tag] = mbPerS(sz.n, timeIt(func() {
			copy(work, shards)
			work[1] = nil
			if err := erasure.ReconstructData(code, work); err != nil {
				panic(err)
			}
			erasure.DefaultPool.Put(work[1])
		}))
		m["erasure.join_mb_per_s_"+sz.tag] = mbPerS(sz.n, timeIt(func() {
			if _, err := erasure.Join(shards, ecK, sz.n); err != nil {
				panic(err)
			}
		}))
	}

	// wire: encode a chunk write and parse it back, as client and server
	// do, at ycsb-b-1k's and burst-1m's chunk sizes.
	chunkKey := wire.ChunkKey(g.key("y", 1), 1)
	var overhead float64
	for _, sz := range []struct {
		tag string
		n   int
	}{{"1k", 1 << 10}, {"350k", 1 << 20}} {
		chunk := make([]byte, erasure.ShardSize(sz.n, ecK, 8))
		meta := wire.ECMeta{ChunkIndex: 1, K: ecK, M: ecM, TotalLen: uint32(sz.n), Stripe: 1}
		req := &wire.Request{ID: 1, Op: wire.OpSetChunk, Key: chunkKey, Value: wire.EncodeChunkPayload(meta, chunk), Meta: meta}
		var buf []byte
		rd := bytes.NewReader(nil)
		br := bufio.NewReaderSize(rd, 64<<10)
		m["wire.codec_ns_per_frame_"+sz.tag] = timeIt(func() {
			var err error
			if buf, err = wire.AppendRequest(buf[:0], req); err != nil {
				panic(err)
			}
			rd.Reset(buf)
			br.Reset(rd)
			got, err := wire.ReadRequestPooled(br, bufpool.Default)
			if err != nil {
				panic(err)
			}
			got.Release()
		})
		if sz.tag == "1k" {
			// Per frame pair, one side carries the chunk and the other is
			// all header: framing bytes per frame, chunk header included.
			ack, err := wire.AppendResponse(nil, &wire.Response{ID: 1})
			if err != nil {
				return nil, err
			}
			overhead = float64(len(buf)-len(chunk)+len(ack)) / 2
		}
	}
	m["wire.overhead_bytes_per_frame"] = overhead

	// store, at the workload's item size.
	const probeKeys = 1024
	s := store.New(store.Config{})
	keys := make([]string, probeKeys)
	item := make([]byte, chunkBytes)
	for i := range keys {
		keys[i] = wire.ChunkKey(g.key("s", i), i%numServers)
		if err := s.Set(keys[i], item, 0); err != nil {
			return nil, err
		}
	}
	i := 0
	m["store.set_ns"] = timeIt(func() {
		if err := s.Set(keys[i%probeKeys], item, 0); err != nil {
			panic(err)
		}
		i++
	})
	m["store.get_ns"] = timeIt(func() {
		if _, ok := s.Get(keys[i%probeKeys]); !ok {
			panic("store probe: key missing")
		}
		i++
	})

	// nearcache, at proxy-mget's small value size.
	nc := nearcache.New(nearcache.Config{MaxBytes: 64 << 20})
	val := nearcache.Value{Data: make([]byte, 1<<10), Version: 1}
	m["nearcache.put_ns"] = timeIt(func() {
		k := keys[i%probeKeys]
		nc.Put(k, val, nc.Begin(k))
		i++
	})
	m["nearcache.get_hit_ns"] = timeIt(func() {
		if _, ok := nc.Get(keys[i%probeKeys]); !ok {
			panic("nearcache probe: key missing")
		}
		i++
	})

	// rpc: the per-message floor, a ping through Pool.Roundtrip to one
	// server on the in-process fabric.
	cl, err := cluster.Start(cluster.Config{N: 1})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	pool := rpc.NewPool(cl.Network())
	defer pool.Close()
	addr := cl.Addrs()[0]
	var pingErr error
	ns := timeIt(func() {
		resp, err := pool.Roundtrip(addr, &wire.Request{Op: wire.OpPing})
		if err != nil {
			pingErr = err
			return
		}
		resp.Release()
	})
	if pingErr != nil {
		return nil, fmt.Errorf("ping probe: %w", pingErr)
	}
	m["rpc.ping_roundtrip_us"] = ns / 1e3
	return m, nil
}
