package simkv

import (
	"fmt"
	"time"

	"ecstore/internal/stats"
	"ecstore/repro/internal/simnet"
)

// Client is a simulated key-value client bound to one client node. A
// node may host many Clients (the paper deploys 15 client threads per
// compute node); they share the node's NIC.
type Client struct {
	sim  *Sim
	node string
	// cpu serializes this client's encode/decode computation: one
	// logical client thread codes one value at a time, while its
	// other windowed operations wait on the network — the
	// computation/communication overlap at the heart of the design.
	cpu *simnet.Resource
	// Breakdown, when non-nil, accumulates the Figure 9 phase split.
	Breakdown *stats.Breakdown
}

// AddClientNode registers a client host on the fabric and starts its
// response dispatcher. Call once per node name, then create any number
// of Clients on it.
func (s *Sim) AddClientNode(name string) {
	node := s.fabric.AddNode(name, 64)
	s.kernel.Go(name+"-dispatch", func(p *simnet.Proc) {
		for {
			msg := node.Recv(p)
			if env, ok := msg.Payload.(*respEnvelope); ok {
				env.reply.TrySend(env.resp)
			}
		}
	})
}

// NewClient returns a client on the given (already added) node.
func (s *Sim) NewClient(node string) *Client {
	return &Client{sim: s, node: node, cpu: simnet.NewResource(s.kernel, 1)}
}

func (c *Client) record(phase string, d time.Duration) {
	if c.Breakdown != nil {
		c.Breakdown.Add(phase, d)
	}
}

func (c *Client) recordOp() {
	if c.Breakdown != nil {
		c.Breakdown.AddOp()
	}
}

// send posts one request message; it reports false if the target is
// down.
func (c *Client) send(p *simnet.Proc, target string, size int, req *request) bool {
	req.replyTo = c.node
	return c.sim.fabric.Send(p, simnet.Message{
		From: c.node, To: target, Size: size, Payload: req,
	})
}

// Set stores key at the given value size under the configured mode,
// blocking p until the resilience guarantee holds. It reports whether
// the write succeeded.
func (c *Client) Set(p *simnet.Proc, key string, size int) bool {
	mode := c.sim.cfg.Mode
	if mode == ModeHybrid {
		if size < c.sim.cfg.HybridThreshold {
			mode = ModeAsyncRep
		} else {
			mode = ModeEraCECD
		}
	}
	return c.setMode(p, key, size, mode)
}

func (c *Client) setMode(p *simnet.Proc, key string, size int, mode Mode) bool {
	cfg := c.sim.cfg
	switch mode {
	case ModeNoRep, ModeAsyncRep:
		replicas := 1
		if mode == ModeAsyncRep {
			replicas = cfg.F
		}
		placement := c.sim.placement(key, replicas)
		start := p.Now()
		reply := simnet.NewChan[response](c.sim.kernel, replicas)
		sent := 0
		for _, target := range placement {
			if c.send(p, target, size+reqHeaderBytes, &request{op: opSet, key: key, size: size, reply: reply}) {
				sent++
			}
		}
		issued := p.Now()
		c.record("request", issued-start)
		ok := sent == len(placement)
		for i := 0; i < sent; i++ {
			if r := reply.Recv(p); !r.ok {
				ok = false
			}
		}
		c.record("wait-response", p.Now()-issued)
		c.recordOp()
		return ok

	case ModeSyncRep:
		placement := c.sim.placement(key, cfg.F)
		start := p.Now()
		ok := true
		for _, target := range placement {
			reply := simnet.NewChan[response](c.sim.kernel, 1)
			if !c.send(p, target, size+reqHeaderBytes, &request{op: opSet, key: key, size: size, reply: reply}) {
				ok = false
				continue
			}
			if r := reply.Recv(p); !r.ok {
				ok = false
			}
		}
		c.record("wait-response", p.Now()-start)
		c.recordOp()
		return ok

	case ModeEraCECD, ModeEraCESD:
		n := cfg.K + cfg.M
		placement := c.sim.placement(key, n)
		chunk := c.sim.chunkBytes(size)
		start := p.Now()
		// Client-side Reed-Solomon encode (Equation 7's T_encode),
		// serialized on this client's CPU.
		c.cpu.Use(p, cfg.Calib.Encode.At(size))
		encoded := p.Now()
		c.record("encode-decode", encoded-start)
		reply := simnet.NewChan[response](c.sim.kernel, n)
		sent := 0
		ok := true
		for i, target := range placement {
			if !c.send(p, target, chunk+reqHeaderBytes, &request{
				op: opSet, key: chunkKey(key, i), size: chunk, reply: reply, tag: i,
			}) {
				ok = false
				continue
			}
			sent++
		}
		issued := p.Now()
		c.record("request", issued-encoded)
		for i := 0; i < sent; i++ {
			if r := reply.Recv(p); !r.ok {
				ok = false
			}
		}
		c.record("wait-response", p.Now()-issued)
		c.recordOp()
		return ok

	case ModeEraSESD, ModeEraSECD:
		// Ship the whole value to the primary; it encodes and
		// distributes. Fall over to the next server if it is down.
		placement := c.sim.placement(key, cfg.K+cfg.M)
		start := p.Now()
		defer func() {
			c.record("wait-response", p.Now()-start)
			c.recordOp()
		}()
		for _, target := range distinctNames(placement) {
			reply := simnet.NewChan[response](c.sim.kernel, 1)
			if !c.send(p, target, size+reqHeaderBytes, &request{op: opEncodeSet, key: key, size: size, reply: reply}) {
				continue
			}
			return reply.Recv(p).ok
		}
		return false

	default:
		panic(fmt.Sprintf("simkv: unknown mode %v", mode))
	}
}

// Get fetches key, reporting the value size and whether it was found.
func (c *Client) Get(p *simnet.Proc, key string) (int, bool) {
	mode := c.sim.cfg.Mode
	if mode == ModeHybrid {
		// The written size is unknown at read time: probe the cheap
		// replicated form first, then the erasure-coded form.
		if size, ok := c.getMode(p, key, ModeAsyncRep); ok {
			return size, true
		}
		return c.getMode(p, key, ModeEraCECD)
	}
	return c.getMode(p, key, mode)
}

func (c *Client) getMode(p *simnet.Proc, key string, mode Mode) (int, bool) {
	cfg := c.sim.cfg
	switch mode {
	case ModeNoRep, ModeSyncRep, ModeAsyncRep:
		replicas := 1
		if mode != ModeNoRep {
			replicas = cfg.F
		}
		placement := c.sim.placement(key, replicas)
		start := p.Now()
		defer func() {
			c.record("wait-response", p.Now()-start)
			c.recordOp()
		}()
		// Primary first; replicas only when servers are down
		// (Equation 4's T_check walk).
		for _, target := range placement {
			reply := simnet.NewChan[response](c.sim.kernel, 1)
			if !c.send(p, target, reqHeaderBytes, &request{op: opGet, key: key, reply: reply}) {
				continue
			}
			r := reply.Recv(p)
			if r.notFound {
				return 0, false
			}
			return r.size, r.ok
		}
		return 0, false

	case ModeEraCECD, ModeEraSECD:
		return c.clientDecodeGet(p, key)

	case ModeEraSESD, ModeEraCESD:
		placement := c.sim.placement(key, cfg.K+cfg.M)
		start := p.Now()
		defer func() {
			c.record("wait-response", p.Now()-start)
			c.recordOp()
		}()
		for _, target := range distinctNames(placement) {
			reply := simnet.NewChan[response](c.sim.kernel, 1)
			if !c.send(p, target, reqHeaderBytes, &request{op: opDecodeGet, key: key, reply: reply}) {
				continue
			}
			r := reply.Recv(p)
			if r.notFound {
				return 0, false
			}
			return r.size, r.ok
		}
		return 0, false

	default:
		panic(fmt.Sprintf("simkv: unknown mode %v", mode))
	}
}

// clientDecodeGet aggregates any K chunks at the client (Era-*-CD):
// data chunks first, parity on failure, reconstruct as needed.
func (c *Client) clientDecodeGet(p *simnet.Proc, key string) (int, bool) {
	cfg := c.sim.cfg
	k, n := cfg.K, cfg.K+cfg.M
	placement := c.sim.placement(key, n)
	start := p.Now()

	have, missingData, sumChunk, notFound := 0, 0, 0, 0
	reply := simnet.NewChan[response](c.sim.kernel, n)
	fetch := func(lo, hi int) {
		pending := 0
		for i := lo; i < hi; i++ {
			if !c.send(p, placement[i], reqHeaderBytes, &request{
				op: opGet, key: chunkKey(key, i), reply: reply, tag: i,
			}) {
				if i < k {
					missingData++
				}
				continue
			}
			pending++
		}
		for j := 0; j < pending; j++ {
			r := reply.Recv(p)
			switch {
			case r.ok:
				have++
				sumChunk += r.size - reqHeaderBytes
			case r.tag < k:
				missingData++
				if r.notFound {
					notFound++
				}
			default:
				if r.notFound {
					notFound++
				}
			}
		}
	}
	fetch(0, k)
	if have < k {
		fetch(k, n)
	}
	gathered := p.Now()
	c.record("wait-response", gathered-start)
	if have < k {
		c.recordOp()
		return 0, false
	}
	total := valueSizeFromChunks(sumChunk, k, have)
	if missingData > 0 {
		// Client-side reconstruction (Equation 8's T_decode),
		// serialized on this client's CPU.
		c.cpu.Use(p, cfg.Calib.DecodeFor(missingData, total))
	}
	c.record("encode-decode", p.Now()-gathered)
	c.recordOp()
	return total, true
}

func distinctNames(names []string) []string {
	seen := make(map[string]bool, len(names))
	out := make([]string, 0, len(names))
	for _, s := range names {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
