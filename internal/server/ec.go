package server

import (
	"time"

	"ecstore/internal/core"
	"ecstore/internal/wire"
)

// coordinator returns the server's core.Coordinator for RS(k, m), built
// over its peer pool and view on the first op of that geometry. Two
// workers racing the first miss may both build one; LoadOrStore keeps
// one and the other is garbage, which shares everything with the kept
// one but its codec.
func (s *Server) coordinator(k, m uint8) (*core.Coordinator, error) {
	key := [2]uint8{k, m}
	if co, ok := s.coordinators.Load(key); ok {
		return co.(*core.Coordinator), nil
	}
	co, err := core.NewCoordinator(core.Config{
		K: int(k), M: int(m), Metrics: s.reg,
	}, s.peers, s.view)
	if err != nil {
		return nil, err
	}
	actual, _ := s.coordinators.LoadOrStore(key, co)
	return actual.(*core.Coordinator), nil
}

// handleEncodeSet is the server-side encode of Era-SE-SD and Era-SE-CD:
// the coordinator stripes the value over its placement, its own chunks
// included, and a failed write is unwound as a client's is.
func (s *Server) handleEncodeSet(req *wire.Request) wire.Response {
	co, err := s.coordinator(req.Meta.K, req.Meta.M)
	if err != nil {
		return errorResponse(err)
	}
	stripe, err := co.Set(req.Key, req.Value, time.Duration(req.TTLSeconds)*time.Second)
	if err != nil {
		return errorResponse(err)
	}
	return wire.Response{Status: wire.StatusOK, Meta: wire.ECMeta{Stripe: stripe}}
}

// handleDecodeGet is the server-side decode of Era-SE-SD and Era-CE-SD:
// the coordinator gathers any K chunks, from a draining placement too,
// and answers the joined value — NotFound only on conclusive evidence.
func (s *Server) handleDecodeGet(req *wire.Request) wire.Response {
	co, err := s.coordinator(req.Meta.K, req.Meta.M)
	if err != nil {
		return errorResponse(err)
	}
	item, err := co.Get(req.Key)
	if err != nil {
		return errorResponse(err)
	}
	return wire.Response{Status: wire.StatusOK, Value: item.Value, TTLSeconds: item.TTL, Meta: wire.ECMeta{Stripe: item.Version}}
}
