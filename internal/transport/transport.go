// Package transport abstracts the byte-stream fabric the key-value
// store runs on. The real system in the paper runs over InfiniBand
// verbs; here a Network is pluggable:
//
//   - Inproc: an in-process network of buffered duplex pipes, optionally
//     shaped with per-direction latency and bandwidth (a userspace
//     "netem") so examples can show communication/computation overlap.
//   - TCP: the loopback/NIC network for real deployments.
//
// The deterministic performance experiments do not use this package;
// they run on the virtual-time simulator in repro/internal/simnet.
package transport

import (
	"errors"
	"io"
	"time"
)

// Conn is a reliable byte stream between a client and a server.
type Conn interface {
	io.Reader
	io.Writer
	io.Closer
}

// Listener accepts inbound connections on an address.
type Listener interface {
	// Accept blocks for the next inbound connection. It returns
	// ErrClosed after Close.
	Accept() (Conn, error)
	// Close stops the listener and unblocks Accept.
	Close() error
	// Addr returns the listen address.
	Addr() string
}

// Network creates listeners and dials them by address.
type Network interface {
	// Listen binds addr.
	Listen(addr string) (Listener, error)
	// Dial connects to addr.
	Dial(addr string) (Conn, error)
}

// Errors shared by transports.
var (
	// ErrClosed is returned by operations on closed connections and
	// listeners.
	ErrClosed = errors.New("transport: closed")
	// ErrAddrInUse is returned by Listen when addr is taken.
	ErrAddrInUse = errors.New("transport: address already in use")
	// ErrConnRefused is returned by Dial when nothing listens on addr.
	ErrConnRefused = errors.New("transport: connection refused")
)

// Shape describes link emulation applied to each direction of an
// in-process connection: every Write is delivered no earlier than
// Latency after it was issued and no faster than Bandwidth allows,
// with successive writes queued behind each other (store-and-forward).
type Shape struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// BytesPerSec caps throughput; zero means unlimited.
	BytesPerSec float64
}

// delay returns the serialization delay of n bytes.
func (s Shape) delay(n int) time.Duration {
	if s.BytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / s.BytesPerSec * float64(time.Second))
}

// zero reports whether the shape is a no-op.
func (s Shape) zero() bool { return s.Latency == 0 && s.BytesPerSec <= 0 }
