// Package simkv models the paper's key-value store cluster on the
// simnet discrete-event fabric: RDMA-Memcached-style servers with
// worker pools and LRU memory accounting, and clients running the
// Asynchronous Request Processing Engine under every resilience
// configuration of the evaluation — Sync-Rep, Async-Rep, no-rep
// (RDMA and IPoIB), and the Era-CE-CD / Era-SE-SD / Era-SE-CD /
// Era-CE-SD erasure-coding schemes.
//
// Communication costs come from the fabric profile (Equation 1 plus
// eager/rendezvous and NIC contention); encode/decode CPU costs come
// from the calibrated model in internal/calib. Everything runs in
// virtual time, so experiments with 150 clients and gigabytes of
// traffic are deterministic and fast.
package simkv

import (
	"container/list"
	"fmt"

	"ecstore/internal/erasure"
	"ecstore/internal/hashring"
	"ecstore/repro/internal/calib"
	"ecstore/repro/internal/simnet"
)

// Mode selects the resilience configuration under test.
type Mode int

// Resilience configurations from the paper's evaluation.
const (
	// ModeNoRep stores one copy (Memc-RDMA-NoRep / Memc-IPoIB-NoRep,
	// depending on the fabric profile).
	ModeNoRep Mode = iota + 1
	// ModeSyncRep is blocking F-way replication (Sync-Rep).
	ModeSyncRep
	// ModeAsyncRep is non-blocking F-way replication (Async-Rep).
	ModeAsyncRep
	// ModeEraCECD is client-side encode, client-side decode.
	ModeEraCECD
	// ModeEraSESD is server-side encode, server-side decode.
	ModeEraSESD
	// ModeEraSECD is server-side encode, client-side decode.
	ModeEraSECD
	// ModeEraCESD is client-side encode, server-side decode.
	ModeEraCESD
	// ModeHybrid replicates values below HybridThreshold and
	// erasure-codes the rest (the paper's future-work policy).
	ModeHybrid
)

// String returns the paper's name for the configuration.
func (m Mode) String() string {
	switch m {
	case ModeNoRep:
		return "no-rep"
	case ModeSyncRep:
		return "sync-rep"
	case ModeAsyncRep:
		return "async-rep"
	case ModeEraCECD:
		return "era-ce-cd"
	case ModeEraSESD:
		return "era-se-sd"
	case ModeEraSECD:
		return "era-se-cd"
	case ModeEraCESD:
		return "era-ce-sd"
	case ModeHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Erasure reports whether the mode is an erasure-coding scheme.
func (m Mode) Erasure() bool {
	switch m {
	case ModeEraCECD, ModeEraSESD, ModeEraSECD, ModeEraCESD:
		return true
	default:
		return false
	}
}

func (m Mode) serverEncodes() bool { return m == ModeEraSESD || m == ModeEraSECD }
func (m Mode) serverDecodes() bool { return m == ModeEraSESD || m == ModeEraCESD }

// Config configures a simulated cluster.
type Config struct {
	// Profile is the fabric (ProfileQDR, ProfileFDR, ProfileEDR,
	// ProfileIPoIB).
	Profile simnet.Profile
	// Servers is the server count (the paper uses 5).
	Servers int
	// ServerWorkers is the per-server worker pool (the paper uses 8).
	ServerWorkers int
	// ServerMemBytes caps each server's memory; 0 = unlimited.
	ServerMemBytes int64
	// Mode is the resilience configuration.
	Mode Mode
	// F is the replication factor for the Rep modes (default 3).
	F int
	// K and M are the erasure parameters (default RS(3,2)).
	K, M int
	// Calib is the coding cost model (calib.Default if zero-valued).
	Calib calib.Model
	// Window is the client ARPE send/receive window: the number of
	// non-blocking operations kept in flight by the micro-benchmark
	// runners (default 16). Sync-Rep always runs with a window of 1,
	// matching its blocking APIs.
	Window int
	// RandomPlacement scatters each key's chunk set over a random
	// (per-key deterministic) permutation of servers instead of the
	// paper's ring-successor walk. Used by the placement ablation.
	RandomPlacement bool
	// HybridThreshold is ModeHybrid's size cutover: values below it
	// replicate, values at or above it erasure-code (16 KB default).
	HybridThreshold int
	// Seed drives all randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Servers <= 0 {
		c.Servers = 5
	}
	if c.ServerWorkers <= 0 {
		c.ServerWorkers = 8
	}
	if c.Mode == 0 {
		c.Mode = ModeNoRep
	}
	if c.F <= 0 {
		c.F = 3
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.M <= 0 {
		c.M = 2
	}
	if c.Calib.K == 0 {
		c.Calib = calib.Default
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.HybridThreshold <= 0 {
		c.HybridThreshold = 16 << 10
	}
	if c.Profile.Name == "" {
		c.Profile = simnet.ProfileQDR
	}
	return c
}

// Modelled host-side costs of a store operation (beyond the fabric's
// per-message overheads): a hash-table access plus a memory copy.
const (
	storeOpFixedNs  = 1500 // ~1.5µs per request at the server
	storeCopyNsPerB = 0.1  // ~10 GB/s memcpy
	ackBytes        = 64   // response header size
	reqHeaderBytes  = 64   // request header size
	// arpeNsPerByte is the server-side ARPE's per-byte staging cost
	// (aggregation buffers, libmemcached client copies, ~2 GB/s).
	// The ARPE is a single engine per server (Section IV-A embeds
	// one ARPE in each Memcached server), so this work serializes —
	// the mechanism behind Era-SE-SD's 2.2x degraded-read penalty.
	arpeNsPerByte = 0.5
)

// Sim is a simulated key-value cluster.
type Sim struct {
	cfg     Config
	kernel  *simnet.Kernel
	fabric  *simnet.Fabric
	ring    *hashring.Ring
	servers map[string]*simServer
	code    *erasure.RSVan // for chunk sizing only; coding cost is modelled
}

// New builds the cluster: server nodes with dispatcher procs and a
// consistent-hashing ring. Client nodes are added by the runners.
func New(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	code, err := erasure.NewRSVan(cfg.K, cfg.M)
	if err != nil {
		return nil, err
	}
	k := simnet.NewKernel(cfg.Seed)
	s := &Sim{
		cfg:     cfg,
		kernel:  k,
		fabric:  simnet.NewFabric(k, cfg.Profile),
		servers: make(map[string]*simServer),
		code:    code,
	}
	for i := 0; i < cfg.Servers; i++ {
		name := fmt.Sprintf("server-%d", i)
		node := s.fabric.AddNode(name, cfg.ServerWorkers)
		srv := &simServer{
			sim:   s,
			name:  name,
			node:  node,
			store: newMetaStore(cfg.ServerMemBytes),
			arpe:  simnet.NewResource(k, 1),
		}
		s.servers[name] = srv
		k.Go(name+"-dispatch", srv.dispatch)
	}
	s.ring = hashring.Build(0, s.ServerNames())
	return s, nil
}

// Kernel returns the simulation kernel.
func (s *Sim) Kernel() *simnet.Kernel { return s.kernel }

// Fabric returns the simulated fabric.
func (s *Sim) Fabric() *simnet.Fabric { return s.fabric }

// Config returns the effective configuration.
func (s *Sim) Config() Config { return s.cfg }

// ServerNames returns the server node names in index order.
func (s *Sim) ServerNames() []string {
	out := make([]string, s.cfg.Servers)
	for i := range out {
		out[i] = fmt.Sprintf("server-%d", i)
	}
	return out
}

// KillServer marks server i failed: its chunks become unreachable.
func (s *Sim) KillServer(i int) {
	s.fabric.SetDown(fmt.Sprintf("server-%d", i), true)
}

// MemoryUsage sums used and capacity bytes and evicted ("lost") bytes
// across servers (Figure 10's metrics).
func (s *Sim) MemoryUsage() (used, capacity, evicted int64) {
	for _, srv := range s.servers {
		used += srv.store.used
		capacity += srv.store.cap
		evicted += srv.store.evictedBytes
	}
	return used, capacity, evicted
}

// placement returns the n servers for key's chunks/replicas: the ring
// primary plus successors (the paper's scheme), wrapping on small
// clusters; or a per-key random permutation when RandomPlacement is
// set.
func (s *Sim) placement(key string, n int) []string {
	var servers []string
	if s.cfg.RandomPlacement {
		servers = s.randomPlacement(key)
	} else {
		servers = s.ring.GetN(key, n)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = servers[i%len(servers)]
	}
	return out
}

// randomPlacement returns a deterministic per-key shuffle of the
// server list.
func (s *Sim) randomPlacement(key string) []string {
	names := s.ServerNames()
	rng := s.kernel.Rand("placement:" + key)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// chunkBytes is the modelled wire/storage size of one chunk of a
// D-byte value under RS(K, M).
func (s *Sim) chunkBytes(valueSize int) int {
	return erasure.ShardSize(valueSize, s.cfg.K, 8) + reqHeaderBytes
}

// metaStore is the metadata-only LRU store: it accounts sizes without
// holding payloads, so simulations can "store" terabytes.
type metaStore struct {
	cap          int64
	used         int64
	items        map[string]*list.Element
	lru          *list.List
	evictions    int64
	evictedBytes int64
}

type metaItem struct {
	key  string
	size int64
}

func newMetaStore(capBytes int64) *metaStore {
	return &metaStore{
		cap:   capBytes,
		items: make(map[string]*list.Element),
		lru:   list.New(),
	}
}

// set stores key at the given size, evicting LRU entries if needed.
// It reports false when the item cannot fit at all.
func (m *metaStore) set(key string, size int64) bool {
	if m.cap > 0 && size > m.cap {
		return false
	}
	if el, ok := m.items[key]; ok {
		m.used -= el.Value.(*metaItem).size
		m.lru.Remove(el)
		delete(m.items, key)
	}
	if m.cap > 0 {
		for m.used+size > m.cap {
			back := m.lru.Back()
			if back == nil {
				return false
			}
			it := back.Value.(*metaItem)
			m.lru.Remove(back)
			delete(m.items, it.key)
			m.used -= it.size
			m.evictions++
			m.evictedBytes += it.size
		}
	}
	m.items[key] = m.lru.PushFront(&metaItem{key: key, size: size})
	m.used += size
	return true
}

// get returns the stored size and whether the key exists, refreshing
// LRU order.
func (m *metaStore) get(key string) (int64, bool) {
	el, ok := m.items[key]
	if !ok {
		return 0, false
	}
	m.lru.MoveToFront(el)
	return el.Value.(*metaItem).size, true
}
