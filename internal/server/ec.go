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
func (s *Server) code(k, m int) (*erasure.RSVan, error) {
	key := [2]int{k, m}
	if c, ok := s.codes.Load(key); ok {
		return c.(*erasure.RSVan), nil
	}
	c, err := erasure.NewRSVan(k, m)
	if err != nil {
		return nil, err
	}
	actual, _ := s.codes.LoadOrStore(key, c)
	return actual.(*erasure.RSVan), nil
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
func (s *Server) handleEncodeSet(req *wire.Request) wire.Response {
	k, m := int(req.Meta.K), int(req.Meta.M)
	code, err := s.code(k, m)
	if err != nil {
		return errorResponse(err)
	}
	placement, err := s.placement(req.Key, k+m)
	if err != nil {
		return errorResponse(err)
	}
	// Pooled split: the data shards are windows of req.Value, which the
	// handler holds until it returns; chunk payloads are copies, so the
	// leased tail and parity buffers go back to the pool then too.
	ps := erasure.SplitPooled(req.Value, k, m, nil)
	defer ps.Release()
	shards := ps.Shards
	if err := code.Encode(shards); err != nil {
		return errorResponse(err)
	}
	meta := req.Meta
	meta.TotalLen = uint32(len(req.Value))
	meta.Stripe = wire.NewStripeID()

	// Issue all remote chunk writes first (non-blocking, one round under
	// one deadline), then store local chunks while the network requests
	// are in flight. Every write is waited out, whatever the others did.
	var round rpc.Round
	calls := make([]rpc.Call, k+m) // slot i is chunk i's; a local chunk leaves its unused
	s.peers.Begin(&round)
	keys := wire.AppendChunkKeys(make([]string, 0, k+m), req.Key, 0, k+m)
	for i, addr := range placement {
		if addr == s.cfg.Addr {
			continue
		}
		cm := meta
		cm.ChunkIndex = uint8(i)
		// The payload buffer is leased; Issue owns it on every path and
		// the frame writer releases it once the bytes are on the wire.
		round.Issue(&calls[i], addr, &wire.Request{
			Op:         wire.OpSetChunk,
			Key:        keys[i],
			Value:      wire.EncodeChunkPayloadPooled(s.framePool, cm, shards[i]),
			ValuePool:  s.framePool,
			TTLSeconds: req.TTLSeconds,
			Meta:       cm,
		})
	}
	var localErr error
	ttl := time.Duration(req.TTLSeconds) * time.Second
	for i, addr := range placement {
		if addr != s.cfg.Addr {
			continue
		}
		cm := meta
		cm.ChunkIndex = uint8(i)
		// A plain allocation and a key of its own: the store keeps both,
		// and keys[i] would pin the string all k+m keys share.
		payload := wire.EncodeChunkPayload(cm, shards[i])
		if err := s.store.SetVersioned(wire.ChunkKey(req.Key, i), payload, ttl, cm.Stripe); err != nil {
			localErr = err
		}
	}
	round.Wait()
	var peerErr error
	for i, addr := range placement {
		if addr == s.cfg.Addr {
			continue
		}
		resp, err := calls[i].Result()
		if err == nil {
			err = resp.Err()
		}
		resp.Release()
		if err != nil && peerErr == nil {
			peerErr = fmt.Errorf("chunk %d to %s: %w", i, addr, err)
		}
	}
	if peerErr != nil {
		return errorResponse(fmt.Errorf("peer chunk write: %w", peerErr))
	}
	if localErr != nil {
		return errorResponse(localErr)
	}
	return wire.Response{Status: wire.StatusOK, Meta: meta}
}

// handleDecodeGet implements the server-side-decode half of the
// Era-SE-SD and Era-CE-SD schemes: the primary aggregates any K of the
// K+M chunks (local reads plus non-blocking peer reads), reconstructs
// missing data chunks if needed, and returns the whole value.
//
// Absence is the client-decode read's rule: NotFound only when every
// location that answered — the local store included — answered
// not-found, and the unreached ones could not hold K chunks between
// them. Anything weaker is an error answer, which the client reports as
// unavailability.
func (s *Server) handleDecodeGet(req *wire.Request) wire.Response {
	k, m := int(req.Meta.K), int(req.Meta.M)
	placement, err := s.placement(req.Key, k+m)
	if err != nil {
		return errorResponse(err)
	}
	collector := wire.NewChunkCollector(k, k+m)

	// Chunks handed to the collector alias the pooled bodies of peer
	// responses, which live in the call slots: those leases stay live
	// until after Join copies the data out; only then do they go back to
	// the pool. Slot i is chunk i's — each chunk is fetched at most once,
	// so no slot serves two calls.
	calls := make([]rpc.Call, k+m)
	defer func() {
		for i := range calls {
			if resp, err := calls[i].Result(); err == nil {
				resp.Release()
			}
		}
	}()
	keys := wire.AppendChunkKeys(make([]string, 0, k+m), req.Key, 0, k+m)

	// fetch asks for the chunks at the positions in want, in one round;
	// failures are tolerated (they are what parity is for), and chunks
	// group by stripe so concurrent writes never tear. The TTL each chunk
	// holder reports is kept on the collector's stripe group so the final
	// response can carry the remaining lifetime of the winning stripe.
	// reachable counts the locations that answered at all, notFound the
	// authoritative misses among them.
	reachable, notFound := 0, 0
	var asked erasure.ShardSet
	fetch := func(want erasure.ShardSet) {
		var round rpc.Round
		s.peers.Begin(&round)
		for i := 0; i < k+m; i++ {
			if !want.Has(i) {
				continue
			}
			asked.Add(i)
			if addr := placement[i]; addr != s.cfg.Addr {
				round.Issue(&calls[i], addr, &wire.Request{Op: wire.OpGetChunk, Key: keys[i]})
				continue
			}
			reachable++
			// Read-only: the payload is the store's own slice, lent. Its
			// version is the chunk's stripe.
			payload, version, ttl, ok := s.store.GetMeta(keys[i])
			if !ok {
				notFound++
				continue
			}
			if meta, chunk, err := wire.DecodeChunkPayload(payload); err == nil {
				meta.Stripe = version
				collector.Add(meta, chunk, wire.TTLSeconds(ttl))
			}
		}
		round.Wait()
		for i := 0; i < k+m; i++ {
			if !want.Has(i) || placement[i] == s.cfg.Addr {
				continue
			}
			resp, err := calls[i].Result()
			if err != nil {
				continue
			}
			reachable++
			switch resp.Status {
			case wire.StatusOK:
				if meta, chunk, err := wire.DecodeChunkPayload(resp.Value); err == nil {
					meta.Stripe = resp.Meta.Stripe
					collector.Add(meta, chunk, resp.TTLSeconds)
				}
			case wire.StatusNotFound:
				notFound++
			}
		}
	}

	// The client-decode read's rounds (ChunkCollector.NextRound): a key
	// that ends undecodable has asked all K+M, so the absence rule below
	// sees every answer.
	suspect := func(i int) bool { return s.peers.Suspect(placement[i]) }
	for {
		want := collector.NextRound(asked, suspect)
		if want == (erasure.ShardSet{}) {
			break
		}
		fetch(want)
	}
	win := collector.Best()
	if win == nil {
		if reachable > 0 && notFound == reachable && k+m-reachable < k {
			return wire.Response{Status: wire.StatusNotFound}
		}
		return errorResponse(fmt.Errorf("decode-get: no stripe of %q has %d chunks available (%d of %d locations answered, %d not found)",
			req.Key, k, reachable, k+m, notFound))
	}

	// Degraded read: rebuild only the missing data chunks — the caller
	// gets the joined value, so recomputing parity would be wasted work.
	chunks := win.Chunks()
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
		if err := code.ReconstructData(chunks); err != nil {
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
	return wire.Response{
		Status:     wire.StatusOK,
		Value:      value,
		TTLSeconds: win.TTL,
		Meta:       wire.ECMeta{K: uint8(k), M: uint8(m), TotalLen: win.TotalLen, Stripe: win.Stripe},
	}
}
