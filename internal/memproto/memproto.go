// Package memproto implements the memcached ASCII protocol — the
// classic text commands (set/add/replace/append/prepend/cas, get/gets,
// delete, incr/decr, touch, flush_all, stats, version) plus the meta
// commands (mg/ms/md/ma/mn) with their common flags — in front of any
// Backend. In particular it fronts the resilient core.Client, which
// turns this package into a drop-in memcached endpoint whose fault
// tolerance is online erasure coding: unmodified memcached clients and
// load generators (the application-server scenario of the paper's
// introduction) connect to the proxy and transparently get resilient,
// memory-efficient storage.
//
// A command goes parse → execute → reply. Each dialect keeps only its
// syntax: a text command line and a meta one both parse into the same
// op (key, store mode, flags, TTL, data, optional CAS token, delta,
// quiet, return flags), one executor runs it against the Backend
// (exec.go: store, arith, touch, remove), and a per-dialect writer
// words the outcome (STORED/NOT_STORED/EXISTS/NOT_FOUND… or
// HD/NS/EX/NF…, the meta return flags through one writer). So the
// text and meta forms of an operation make the same Backend calls.
//
// Protocol notes and deviations:
//
//   - Client flags are stored as a 4-byte big-endian prefix inside the
//     backend value, so the backend stays a plain byte store. Values
//     written through the proxy therefore carry the prefix when read
//     directly with kvcli, and vice versa.
//   - CAS tokens are the cluster's stripe-version IDs, threaded from
//     the store through core.Client (see DESIGN §10); gets/mg report
//     them and cas/ms-C check them with real conditional writes. The
//     token is compared in every store mode but add: a stale one
//     answers EXISTS/EX and changes nothing.
//   - replace/append/prepend/incr/decr/touch (and their ms/ma forms)
//     run through one read-modify-write loop built on the conditional
//     write, bounded by casRetries, so they are atomic against
//     concurrent proxy mutations of the same key.
//   - A command counts in ecstore_proxy_cmd_errors_total only when it
//     is answered ERROR, CLIENT_ERROR or SERVER_ERROR; a miss or a lost
//     conditional write (NOT_STORED, EXISTS, NS, EX, NF) is an answer.
//   - Requests are pipelined: responses are buffered and flushed only
//     when the read side has no more buffered input, so a burst of
//     pipelined commands costs a handful of writes.
//   - Not implemented: the binary protocol, base64 meta keys (b flag),
//     gat/gats, and flush_all with a delay (the delay is ignored).
package memproto

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"ecstore/internal/metrics"
	"ecstore/internal/transport"
)

// DefaultMaxItemSize bounds a single item when no option overrides it:
// the paper's 16 MB frame ceiling divided by a safety margin (memcached
// defaults to 1 MB; -max-item-size widens it).
const DefaultMaxItemSize = 8 << 20

// proxyVersion is the string the `version` command reports.
const proxyVersion = "ecstore-memproxy"

// Backend errors. Backends translate their storage errors into these
// so the protocol layer can answer with the right memcached response
// (miss vs EXISTS vs SERVER_ERROR).
var (
	// ErrCacheMiss means the key does not exist.
	ErrCacheMiss = errors.New("memproto: cache miss")
	// ErrCASConflict means the conditional write lost: the stored CAS
	// token differs from the expected one (or, for an add, the key
	// already exists).
	ErrCASConflict = errors.New("memproto: cas conflict")
)

// Item is one stored item as the Backend sees it: an opaque value (the
// proxy keeps the memcached client flags inside it), the CAS token,
// and the remaining TTL in whole seconds (0 = no expiry).
type Item struct {
	Value []byte
	CAS   uint64
	TTL   uint32
}

// Backend is the storage the proxy serves. Implementations must be
// safe for concurrent use.
type Backend interface {
	// Set stores value under key with a TTL (0 = no expiry) and
	// returns the CAS token of the new item version.
	Set(key string, value []byte, ttl time.Duration) (uint64, error)
	// Get returns the item stored under key, or ErrCacheMiss.
	Get(key string) (Item, error)
	// GetMulti fetches every key in one batched backend operation. It
	// returns the items found plus a per-key error map for keys whose
	// state could not be determined; a key in neither map is
	// authoritatively absent. The keys are the backend's to keep, the
	// slice is not: the handler reuses it for its next command.
	GetMulti(keys []string) (map[string]Item, map[string]error)
	// Cas stores value only if the current CAS token equals cas,
	// returning the new token. cas == 0 requires the key to be absent
	// (add semantics). A lost race returns ErrCASConflict, an absent
	// key (with cas != 0) ErrCacheMiss.
	Cas(key string, value []byte, ttl time.Duration, cas uint64) (uint64, error)
	// Delete removes key, reporting whether it existed.
	Delete(key string) (bool, error)
	// DeleteCas removes key only while its CAS token still equals cas
	// — atomically, with no check-then-delete window a concurrent
	// writer could slip through. An absent key returns ErrCacheMiss, a
	// token mismatch ErrCASConflict. cas must be non-zero.
	DeleteCas(key string, cas uint64) error
	// Flush removes every item.
	Flush() error
	// Stats returns server statistics as key/value lines.
	Stats() map[string]string
}

// flagsPrefixLen is the size of the client-flags prefix the proxy
// stores in front of every value.
const flagsPrefixLen = 4

// encodeFlags prepends the memcached client flags to value, in a copy.
func encodeFlags(flags uint32, value []byte) []byte {
	return putFlags(flags, append(make([]byte, flagsPrefixLen, flagsPrefixLen+len(value)), value...))
}

// putFlags writes the memcached client flags in place, into the
// flagsPrefixLen bytes of room at the front of value, and returns it.
func putFlags(flags uint32, value []byte) []byte {
	binary.BigEndian.PutUint32(value, flags)
	return value
}

// decodeFlags splits a stored value into client flags and payload. A
// value too short to carry the prefix (written by a non-proxy client)
// is returned whole with flags 0.
func decodeFlags(stored []byte) (uint32, []byte) {
	if len(stored) < flagsPrefixLen {
		return 0, stored
	}
	return binary.BigEndian.Uint32(stored), stored[flagsPrefixLen:]
}

// Option configures a Handler (and through it, a Server).
type Option func(*Handler)

// WithMaxItemSize overrides the per-item size ceiling.
func WithMaxItemSize(n int) Option {
	return func(h *Handler) {
		if n > 0 {
			h.maxItem = n
		}
	}
}

// WithMetrics registers the proxy's per-command counters, hit/miss
// ratios, byte counters, and latency histograms (ecstore_proxy_*) in
// reg.
func WithMetrics(reg *metrics.Registry) Option {
	return func(h *Handler) { h.pm = newProxyMetrics(reg) }
}

// Server speaks the memcached ASCII protocol on a listener.
type Server struct {
	handler  *Handler
	listener transport.Listener

	mu     sync.Mutex
	conns  map[transport.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a protocol server on ln backed by backend.
func Serve(ln transport.Listener, backend Backend, opts ...Option) *Server {
	s := &Server{
		handler:  NewHandler(backend, opts...),
		listener: ln,
		conns:    make(map[transport.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Close stops the server and tears down open connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	_ = s.listener.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				_ = conn.Close()
			}()
			_ = s.handler.ServeConn(conn, conn)
		}()
	}
}
