package server

import (
	"errors"
	"fmt"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// code returns a cached RS-Vandermonde code for (k, m). Server-side
// encode/decode always uses RS(K,M), the code the paper selects.
// Lock-free on the hit path: the codecs are concurrency-safe, so
// workers encode and decode in parallel. Two workers racing the first
// miss may both construct a code; LoadOrStore keeps one and the other
// is garbage — cheap, and only ever on first use of a (k, m) pair.
func (s *Server) code(k, m int) (erasure.Code, error) {
	key := [2]int{k, m}
	if c, ok := s.codes.Load(key); ok {
		return c.(erasure.Code), nil
	}
	c, err := erasure.NewRSVan(k, m)
	if err != nil {
		return nil, err
	}
	actual, _ := s.codes.LoadOrStore(key, c)
	return actual.(erasure.Code), nil
}

// placement returns the n chunk-holder addresses for key: the ring
// primary followed by the next distinct servers. When the cluster has
// fewer than n members, chunk i wraps onto placement[i % members].
func (s *Server) placement(key string, n int) ([]string, error) {
	servers := s.view.Ring().GetN(key, n)
	if len(servers) == 0 {
		return nil, errors.New("server: no peers configured for erasure placement")
	}
	out := make([]string, n)
	for i := range out {
		out[i] = servers[i%len(servers)]
	}
	return out, nil
}

// handleEncodeSet implements the server-side-encode half of the
// Era-SE-SD and Era-SE-CD schemes: the primary splits the value,
// computes parity on its own CPU (overlapped with peer communication
// by the worker pool), stores its own chunks locally, and distributes
// the rest to peers with non-blocking chunk writes.
func (s *Server) handleEncodeSet(req *wire.Request) *wire.Response {
	k, m := int(req.Meta.K), int(req.Meta.M)
	if k == 0 {
		return &wire.Response{Status: wire.StatusError, Value: []byte("encode-set: missing K/M metadata")}
	}
	code, err := s.code(k, m)
	if err != nil {
		return errorResponse(err)
	}
	placement, err := s.placement(req.Key, k+m)
	if err != nil {
		return errorResponse(err)
	}
	// Pooled split: chunk payloads are copies, so the shard buffers go
	// back to the pool when the handler returns.
	ps := erasure.SplitPooled(req.Value, k, m, nil)
	defer ps.Release()
	shards := ps.Shards
	if err := code.Encode(shards); err != nil {
		return errorResponse(err)
	}
	meta := req.Meta
	meta.TotalLen = uint32(len(req.Value))
	meta.Stripe = wire.NewStripeID()

	// Issue all remote chunk writes first (non-blocking), then store
	// local chunks while the network requests are in flight.
	calls := make([]*rpc.Call, 0, k+m)
	var localErr error
	type localChunk struct {
		idx  int
		addr string
	}
	locals := make([]localChunk, 0, 2)
	for i, addr := range placement {
		cm := meta
		cm.ChunkIndex = uint8(i)
		if addr == s.cfg.Addr {
			locals = append(locals, localChunk{idx: i, addr: addr})
			continue
		}
		// The payload buffer is leased; Send owns it on every path and
		// the frame writer releases it once the bytes are on the wire.
		call, err := s.peers.Send(addr, &wire.Request{
			Op:         wire.OpSetChunk,
			Key:        wire.ChunkKey(req.Key, i),
			Value:      wire.EncodeChunkPayloadPooled(s.framePool, cm, shards[i]),
			ValuePool:  s.framePool,
			TTLSeconds: req.TTLSeconds,
			Meta:       cm,
		})
		if err != nil {
			return errorResponse(fmt.Errorf("distribute chunk %d to %s: %w", i, addr, err))
		}
		calls = append(calls, call)
	}
	ttl := time.Duration(req.TTLSeconds) * time.Second
	for _, lc := range locals {
		cm := meta
		cm.ChunkIndex = uint8(lc.idx)
		payload := wire.EncodeChunkPayloadPooled(s.framePool, cm, shards[lc.idx])
		err := s.store.SetVersioned(wire.ChunkKey(req.Key, lc.idx), payload, ttl, cm.Stripe)
		s.framePool.Put(payload) // the store copied it
		if err != nil {
			localErr = err
		}
	}
	for _, call := range calls {
		resp, err := call.Wait()
		if err == nil {
			err = resp.Err()
		}
		resp.Release()
		if err != nil {
			return errorResponse(fmt.Errorf("peer chunk write: %w", err))
		}
	}
	if localErr != nil {
		return errorResponse(localErr)
	}
	return &wire.Response{Status: wire.StatusOK, Meta: meta}
}

// handleDecodeGet implements the server-side-decode half of the
// Era-SE-SD and Era-CE-SD schemes: the primary aggregates any K of the
// K+M chunks (local reads plus non-blocking peer reads), reconstructs
// missing data chunks if needed, and returns the whole value.
func (s *Server) handleDecodeGet(req *wire.Request) *wire.Response {
	k, m := int(req.Meta.K), int(req.Meta.M)
	if k == 0 {
		return &wire.Response{Status: wire.StatusError, Value: []byte("decode-get: missing K/M metadata")}
	}
	placement, err := s.placement(req.Key, k+m)
	if err != nil {
		return errorResponse(err)
	}
	collector := wire.NewChunkCollector(k, k+m)

	// Chunks handed to the collector alias the pooled bodies of peer
	// responses, so those leases stay live until after Join copies the
	// data out; only then do they go back to the pool.
	var retained []*wire.Response
	defer func() {
		for _, r := range retained {
			r.Release()
		}
	}()

	// fetch attempts to retrieve the chunk set indexed by idxs;
	// failures are tolerated (they are what parity is for), and
	// chunks group by stripe so concurrent writes never tear. The TTL
	// each chunk holder reports is kept on the collector's stripe group
	// so the final response can carry the remaining lifetime of the
	// winning stripe.
	fetch := func(idxs []int) {
		calls := make(map[int]*rpc.Call, len(idxs))
		for _, i := range idxs {
			addr := placement[i]
			key := wire.ChunkKey(req.Key, i)
			if addr == s.cfg.Addr {
				if payload, _, ttl, ok := s.store.GetMeta(key); ok {
					if meta, chunk, err := wire.DecodeChunkPayload(payload); err == nil {
						collector.Add(meta, chunk, ttlSeconds(ttl))
					}
				}
				continue
			}
			call, err := s.peers.Send(addr, &wire.Request{Op: wire.OpGetChunk, Key: key})
			if err != nil {
				continue
			}
			calls[i] = call
		}
		for _, call := range calls {
			resp, err := call.Wait()
			if err != nil || resp.Err() != nil {
				resp.Release()
				continue
			}
			meta, chunk, err := wire.DecodeChunkPayload(resp.Value)
			if err != nil {
				resp.Release()
				continue
			}
			collector.Add(meta, chunk, resp.TTLSeconds)
			retained = append(retained, resp)
		}
	}

	// Round 1: the K data chunks. Round 2: parity as needed.
	fetch(seqInts(0, k))
	if collector.Best() == nil {
		fetch(seqInts(k, k+m))
	}
	win := collector.Best()
	if win == nil {
		return &wire.Response{Status: wire.StatusNotFound}
	}

	// Degraded read: rebuild only the missing data chunks — the caller
	// gets the joined value, so recomputing parity would be wasted work.
	chunks := win.Chunks
	var rebuilt []int
	for i := 0; i < k; i++ {
		if chunks[i] == nil {
			rebuilt = append(rebuilt, i)
		}
	}
	if len(rebuilt) > 0 {
		code, err := s.code(k, m)
		if err != nil {
			return errorResponse(err)
		}
		if err := erasure.ReconstructData(code, chunks); err != nil {
			return errorResponse(err)
		}
	}
	value, err := erasure.Join(chunks, k, int(win.TotalLen))
	// Join copied the data; pool-allocated rebuilt chunks can be
	// recycled. Peer-owned chunk buffers are never released.
	for _, i := range rebuilt {
		erasure.DefaultPool.Put(chunks[i])
	}
	if err != nil {
		return errorResponse(err)
	}
	return &wire.Response{
		Status:     wire.StatusOK,
		Value:      value,
		TTLSeconds: win.TTL,
		Meta:       wire.ECMeta{K: uint8(k), M: uint8(m), TotalLen: win.TotalLen, Stripe: win.Stripe},
	}
}

func seqInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
