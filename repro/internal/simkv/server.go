package simkv

import (
	"fmt"
	"time"

	"ecstore/repro/internal/simnet"
)

// opKind identifies a simulated request type.
type opKind int

const (
	opSet opKind = iota + 1
	opGet
	opEncodeSet
	opDecodeGet
)

// request is the payload of a client-to-server (or server-to-server)
// message.
type request struct {
	op   opKind
	key  string
	size int // value bytes carried by Set-type requests
	// reply receives the response; replyTo names the node to route
	// the response message through (for NIC accounting).
	reply   *simnet.Chan[response]
	replyTo string
	tag     int
}

// response is a request outcome.
type response struct {
	ok       bool
	notFound bool
	size     int // payload bytes carried back (Get responses)
	tag      int
}

// respEnvelope wraps a response with its destination channel; node
// dispatchers deliver it.
type respEnvelope struct {
	resp  response
	reply *simnet.Chan[response]
}

// simServer is one simulated store server.
type simServer struct {
	sim   *Sim
	name  string
	node  *simnet.Node
	store *metaStore
	// arpe is the server's single Asynchronous Request Processing
	// Engine: the coordination thread that stages chunk buffers and
	// runs Reed-Solomon compute for the server-side schemes.
	arpe *simnet.Resource
}

// storeOpCost models the host-side cost of one store operation on
// size bytes: hash access plus memory copy.
func storeOpCost(size int) time.Duration {
	return time.Duration(storeOpFixedNs)*time.Nanosecond +
		time.Duration(storeCopyNsPerB*float64(size))
}

// dispatch is the server's inbox loop: requests get a handler process
// (admitted by the worker pool), responses route to their waiters.
func (srv *simServer) dispatch(p *simnet.Proc) {
	n := 0
	for {
		msg := srv.node.Recv(p)
		switch pl := msg.Payload.(type) {
		case *request:
			n++
			req := pl
			from := msg.From
			p.Go(fmt.Sprintf("%s-h%d", srv.name, n), func(hp *simnet.Proc) {
				srv.handle(hp, from, req)
			})
		case *respEnvelope:
			pl.reply.TrySend(pl.resp)
		}
	}
}

// respond sends a response of the given payload size back to the
// requester's node.
func (srv *simServer) respond(p *simnet.Proc, to string, req *request, resp response, payloadBytes int) {
	resp.tag = req.tag
	srv.sim.fabric.Send(p, simnet.Message{
		From:    srv.name,
		To:      to,
		Size:    payloadBytes,
		Payload: &respEnvelope{resp: resp, reply: req.reply},
	})
}

func (srv *simServer) handle(p *simnet.Proc, from string, req *request) {
	prof := srv.sim.cfg.Profile
	switch req.op {
	case opSet:
		srv.node.CPU.Use(p, prof.RecvOverhead+storeOpCost(req.size))
		ok := srv.store.set(req.key, int64(req.size))
		srv.respond(p, from, req, response{ok: ok}, ackBytes)
	case opGet:
		size, ok := srv.store.get(req.key)
		srv.node.CPU.Use(p, prof.RecvOverhead+storeOpCost(int(size)))
		if !ok {
			srv.respond(p, from, req, response{notFound: true}, ackBytes)
			return
		}
		srv.respond(p, from, req, response{ok: true, size: int(size)}, int(size)+ackBytes)
	case opEncodeSet:
		srv.encodeSet(p, from, req)
	case opDecodeGet:
		srv.decodeGet(p, from, req)
	default:
		srv.respond(p, from, req, response{}, ackBytes)
	}
}

// encodeSet is the server half of Era-SE-*: split and encode on a
// server worker, store local chunks, distribute the rest with
// non-blocking writes, acknowledge once every chunk is durable.
func (srv *simServer) encodeSet(p *simnet.Proc, from string, req *request) {
	sim := srv.sim
	cfg := sim.cfg
	n := cfg.K + cfg.M
	placement := sim.placement(req.key, n)
	chunk := sim.chunkBytes(req.size)

	// Ingest, encode and chunk staging all run on the worker pool:
	// the multi-threaded server parallelizes encodes across requests
	// (Section IV-B: Era-SE "can exploit its ARPE to improve its
	// throughput" with "parallel executing server-side workers").
	staging := time.Duration(arpeNsPerByte * float64(n*chunk))
	srv.node.CPU.Use(p, cfg.Profile.RecvOverhead+storeOpCost(req.size)+cfg.Calib.Encode.At(req.size)+staging)

	reply := simnet.NewChan[response](sim.kernel, n)
	remote := 0
	okLocal := true
	for i, target := range placement {
		ckey := chunkKey(req.key, i)
		if target == srv.name {
			if !srv.store.set(ckey, int64(chunk)) {
				okLocal = false
			}
			continue
		}
		sent := sim.fabric.Send(p, simnet.Message{
			From: srv.name,
			To:   target,
			Size: chunk + reqHeaderBytes,
			Payload: &request{
				op: opSet, key: ckey, size: chunk,
				reply: reply, replyTo: srv.name, tag: i,
			},
		})
		if !sent {
			// A dead peer fails the strict write.
			srv.respond(p, from, req, response{}, ackBytes)
			return
		}
		remote++
	}
	ok := okLocal
	for i := 0; i < remote; i++ {
		if r := reply.Recv(p); !r.ok {
			ok = false
		}
	}
	srv.respond(p, from, req, response{ok: ok}, ackBytes)
}

// decodeGet is the server half of Era-*-SD: aggregate any K chunks
// from itself and its peers, reconstruct if data chunks are missing,
// and return the whole value.
func (srv *simServer) decodeGet(p *simnet.Proc, from string, req *request) {
	sim := srv.sim
	cfg := sim.cfg
	k, m := cfg.K, cfg.M
	n := k + m
	placement := sim.placement(req.key, n)

	srv.node.CPU.Use(p, cfg.Profile.RecvOverhead+storeOpCost(0))

	have := 0
	missingData := 0
	var valueSize int

	reply := simnet.NewChan[response](sim.kernel, n)
	fetch := func(lo, hi int) {
		pending := 0
		for i := lo; i < hi; i++ {
			target := placement[i]
			ckey := chunkKey(req.key, i)
			if target == srv.name {
				if size, ok := srv.store.get(ckey); ok {
					have++
					valueSize += int(size) - reqHeaderBytes
				} else if i < k {
					missingData++
				}
				continue
			}
			sent := sim.fabric.Send(p, simnet.Message{
				From: srv.name,
				To:   target,
				Size: reqHeaderBytes,
				Payload: &request{
					op: opGet, key: ckey,
					reply: reply, replyTo: srv.name, tag: i,
				},
			})
			if !sent {
				if i < k {
					missingData++
				}
				continue
			}
			pending++
		}
		for j := 0; j < pending; j++ {
			r := reply.Recv(p)
			if r.ok {
				have++
				valueSize += r.size - reqHeaderBytes
			} else if r.tag < k {
				missingData++
			}
		}
	}

	fetch(0, k)
	if have < k {
		fetch(k, n)
	}
	if have < k {
		srv.respond(p, from, req, response{notFound: true}, ackBytes)
		return
	}
	// Chunk staging and any reconstruction run on the server's
	// single ARPE engine. Under failures the surviving coordinators
	// absorb all of this serialized work — the high client
	// wait-response the paper reports for Era-SE-SD.
	total := valueSizeFromChunks(valueSize, k, have)
	staging := time.Duration(arpeNsPerByte * float64(2*total))
	srv.arpe.Use(p, staging+cfg.Calib.DecodeFor(missingData, total))
	srv.respond(p, from, req, response{ok: true, size: total}, total+ackBytes)
}

// valueSizeFromChunks estimates the original value size from the sum
// of gathered chunk payloads: chunks are D/K each and we gathered
// `got` of them.
func valueSizeFromChunks(sumChunkBytes, k, got int) int {
	if got == 0 {
		return 0
	}
	per := sumChunkBytes / got
	return per * k
}

func chunkKey(key string, i int) string {
	return fmt.Sprintf("%s#%d", key, i)
}
