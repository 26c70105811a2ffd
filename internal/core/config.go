// Package core implements the paper's primary contribution: a
// high-performance resilient key-value store client with online
// erasure coding. It provides:
//
//   - Non-blocking Set/Get APIs (ISet/IGet) with
//     memcached_wait/test-style completion, backed by an Asynchronous
//     Request Processing Engine (ARPE) that overlaps encode/decode
//     computation with the request/response phases.
//   - Resilience strategies: none, synchronous replication (blocking,
//     one replica at a time), asynchronous replication (overlapped
//     replica writes), and online Reed-Solomon erasure coding with the
//     three placement schemes Section IV-B evaluates — Era-CE-CD,
//     Era-SE-SD and Era-SE-CD (the paper argues its fourth, Era-CE-SD,
//     unsuitable) — plus the hybrid replication/EC policy sketched in
//     the paper's future work.
//   - Degraded reads: any K of the K+M chunks reconstruct a value, so
//     up to M server failures are tolerated.
package core

import (
	"fmt"
	"time"

	"ecstore/internal/metrics"
	"ecstore/internal/transport"
)

// Resilience selects the fault-tolerance mechanism.
type Resilience int

// Resilience modes.
const (
	// ResilienceNone stores a single copy (the Memc-*-NoRep baselines).
	ResilienceNone Resilience = iota + 1
	// ResilienceSyncRep writes F replicas one at a time with blocking
	// round trips (Sync-Rep in the paper).
	ResilienceSyncRep
	// ResilienceAsyncRep writes F replicas with overlapped
	// non-blocking requests (Async-Rep).
	ResilienceAsyncRep
	// ResilienceErasure uses online RS(K,M) erasure coding with the
	// configured Scheme.
	ResilienceErasure
	// ResilienceHybrid replicates small values and erasure-codes
	// large ones (the paper's future-work hybrid policy).
	ResilienceHybrid
)

// String returns the mode mnemonic.
func (r Resilience) String() string {
	switch r {
	case ResilienceNone:
		return "none"
	case ResilienceSyncRep:
		return "sync-rep"
	case ResilienceAsyncRep:
		return "async-rep"
	case ResilienceErasure:
		return "erasure"
	case ResilienceHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("resilience(%d)", int(r))
	}
}

// Scheme selects where erasure encoding and decoding run
// (Section IV-B's design choices).
type Scheme int

// Erasure-coding placement schemes.
const (
	// SchemeCECD encodes and decodes at the client (Era-CE-CD).
	SchemeCECD Scheme = iota + 1
	// SchemeSESD encodes and decodes at the server (Era-SE-SD).
	SchemeSESD
	// SchemeSECD encodes at the server, decodes at the client
	// (Era-SE-CD).
	SchemeSECD
)

// String returns the scheme mnemonic.
func (s Scheme) String() string {
	switch s {
	case SchemeCECD:
		return "era-ce-cd"
	case SchemeSESD:
		return "era-se-sd"
	case SchemeSECD:
		return "era-se-cd"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseMode parses a mode name as the commands' -mode flag takes it:
// a Resilience mnemonic (none, sync-rep, async-rep, hybrid) or an
// erasure Scheme mnemonic (era-ce-cd, era-se-sd, era-se-cd),
// which implies ResilienceErasure.
func ParseMode(name string) (Resilience, Scheme, error) {
	for r := ResilienceNone; r <= ResilienceHybrid; r++ {
		if r != ResilienceErasure && r.String() == name {
			return r, 0, nil
		}
	}
	for s := SchemeCECD; s <= SchemeSECD; s++ {
		if s.String() == name {
			return ResilienceErasure, s, nil
		}
	}
	return 0, 0, fmt.Errorf("unknown mode %q", name)
}

// Defaults mirroring the paper's evaluation setup.
const (
	// DefaultReplicas is the paper's three-way replication factor.
	DefaultReplicas = 3
	// DefaultK and DefaultM are the paper's RS(3,2) on a 5-node
	// cluster.
	DefaultK = 3
	// DefaultM is the parity count of RS(3,2).
	DefaultM = 2
	// DefaultWindow is the ARPE send/receive window: the maximum
	// number of in-flight non-blocking operations.
	DefaultWindow = 64
	// DefaultHybridThreshold is the value size at which the hybrid
	// policy switches from replication to erasure coding: a value
	// shorter than it is replicated.
	DefaultHybridThreshold = 16 << 10
	// DefaultOpTimeout bounds each RPC round trip. It is generous —
	// failure detection for a hung server, not a latency target — so
	// in-process and LAN deployments never trip it under load.
	DefaultOpTimeout = 15 * time.Second
	// DefaultMaxRetries is how many times an idempotent read is
	// retried after a transient failure (timeout or server down).
	DefaultMaxRetries = 2
	// DefaultRetryBackoff is the initial delay before the first retry;
	// it doubles per attempt with jitter.
	DefaultRetryBackoff = 10 * time.Millisecond
	// DefaultCacheMaxAge caps how long the near cache may serve any
	// entry when CacheBytes enables it, bounding cross-client
	// staleness even for items with no TTL of their own.
	DefaultCacheMaxAge = 5 * time.Second
)

// Config configures a Client.
type Config struct {
	// Network is the transport to dial servers through.
	Network transport.Network
	// Servers lists the server addresses. Order does not matter;
	// placement comes from consistent hashing, so every client and
	// server sharing the list agrees.
	Servers []string
	// Resilience selects the fault-tolerance mechanism
	// (ResilienceNone if unset).
	Resilience Resilience
	// Replicas is the replication factor F (DefaultReplicas if zero).
	Replicas int
	// K and M are the erasure-coding parameters (RS(3,2) if zero).
	K, M int
	// Scheme selects the EC placement scheme (SchemeCECD if unset).
	Scheme Scheme
	// Window bounds in-flight non-blocking operations
	// (DefaultWindow if zero).
	Window int
	// OpTimeout bounds each RPC round trip: a call that has not been
	// answered within the deadline completes with rpc.ErrTimeout, so a
	// hung server never blocks Get/Set/Delete indefinitely
	// (DefaultOpTimeout if zero; negative disables deadlines).
	OpTimeout time.Duration
	// MaxRetries caps retries of idempotent reads on transient
	// failures — Get/GetChunk after a timeout or a down server. Writes
	// are never silently retried once any chunk or replica write has
	// been issued (DefaultMaxRetries if zero; negative disables
	// retries).
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling with
	// jitter per attempt (DefaultRetryBackoff if zero).
	RetryBackoff time.Duration
	// CacheBytes enables the client-side near cache: a size-bounded
	// two-queue FIFO over logical values (a new key waits in a small
	// queue and moves to the main one only if hit there; see package
	// nearcache), stamped with the stripe version each value was read
	// at, invalidated on local Set/Cas/Delete (every Cas outcome — a
	// conditional write that loses with EXISTS drops the entry), on authoritative absence, and on TTL or CacheMaxAge
	// expiry (DESIGN §11). Hot zipfian reads are served from local
	// memory instead of dialing the key's home server. 0 disables
	// caching; reads still coalesce through the cache, which keeps nothing.
	CacheBytes int64
	// CacheMaxAge caps how long any cached entry may be served
	// regardless of its item TTL — the bound on cross-client staleness
	// (DefaultCacheMaxAge if zero; negative removes the cap so only
	// item TTLs and invalidations expire entries). It bounds residency
	// only: the TTL a cached read reports is always the item's own
	// remaining lifetime, never this cap.
	CacheMaxAge time.Duration
	// Metrics is the registry the client publishes its always-on
	// observability into: per-op counts and latencies, per-phase
	// latency histograms (the Figure 9 breakdown), degraded reads,
	// failovers, stripe unwinds, retries, and the rpc pool's call /
	// timeout / health-transition counters. A fresh registry is
	// created if nil; expose it with Client.Metrics.
	Metrics *metrics.Registry
}

// withDefaults validates cfg and fills defaults. Network and Servers
// are New's to check: a coordinator runs over a server's pool and view.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Resilience == 0 {
		cfg.Resilience = ResilienceNone
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.K <= 0 {
		cfg.K = DefaultK
	}
	if cfg.M <= 0 {
		cfg.M = DefaultM
	}
	if cfg.Scheme == 0 {
		cfg.Scheme = SchemeCECD
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	switch {
	case cfg.OpTimeout == 0:
		cfg.OpTimeout = DefaultOpTimeout
	case cfg.OpTimeout < 0:
		cfg.OpTimeout = 0 // deadlines disabled
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = DefaultMaxRetries
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0 // retries disabled
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.CacheBytes < 0 {
		cfg.CacheBytes = 0
	}
	switch {
	case cfg.CacheMaxAge == 0:
		cfg.CacheMaxAge = DefaultCacheMaxAge
	case cfg.CacheMaxAge < 0:
		cfg.CacheMaxAge = 0 // no residency cap
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.K+cfg.M > 256 {
		return cfg, fmt.Errorf("core: K+M too large (%d)", cfg.K+cfg.M)
	}
	return cfg, nil
}
