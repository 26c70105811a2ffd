package server

import (
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

// coordinate is the one server path of the coordinated ops: it serves
// subs — one op at one geometry, a plain encode-set or decode-get or a
// batch led by one — as ONE Coordinator call, on a worker, and answers
// subs[j] in resps[at[j]]. Nothing answers for the frame as a whole once
// a sub-op ran: an encode-set's answer carries no value, so its batch
// always fits the response frame.
func (s *Server) coordinate(subs []wire.BatchReq, at []int, resps []wire.BatchResp) {
	co, err := s.coordinator(subs[0].Meta.K, subs[0].Meta.M)
	answer := func(j int, item core.Item, err error) {
		r := &resps[at[j]]
		if err != nil {
			e := errorResponse(err)
			*r = wire.BatchResp{Status: e.Status, Value: e.Value}
			return
		}
		*r = wire.BatchResp{Status: wire.StatusOK, Value: item.Value, TTLSeconds: item.TTL, Meta: wire.ECMeta{Stripe: item.Version}}
	}
	if err != nil {
		for j := range subs {
			answer(j, core.Item{}, err)
		}
		return
	}
	co.Serve(subs, answer)
}
