package transport

import (
	"sync"
	"time"
)

// Netem wraps a Network with per-destination fault injection, the
// userspace analogue of Linux tc-netem for the failure modes a Shape
// cannot express. Faults are keyed by the dialed address and apply to
// new and existing connections alike:
//
//   - Hang: the server still accepts connections, but requests written
//     after the fault are swallowed and no response bytes are
//     delivered — a hung process or a partition after accept.
//   - Delay: response bytes are held back by a fixed duration from
//     their arrival — a live but pathologically slow server.
//   - Cut: new dials are refused and established connections fail on
//     their next read or write — a dead host.
//
// Netem also counts dials per address, which tests use to assert that
// the client's pool stops re-dialing known-dead servers.
// The listen side passes straight through to the inner network.
type Netem struct {
	inner Network

	mu    sync.Mutex
	dials map[string]int
	cut   map[string]bool
	hung  map[string]bool
	delay map[string]time.Duration
}

// NewNetem wraps inner with fault injection (no faults active).
func NewNetem(inner Network) *Netem {
	return &Netem{
		inner: inner,
		dials: make(map[string]int),
		cut:   make(map[string]bool),
		hung:  make(map[string]bool),
		delay: make(map[string]time.Duration),
	}
}

var _ Network = (*Netem)(nil)

// Listen binds addr on the inner network.
func (n *Netem) Listen(addr string) (Listener, error) { return n.inner.Listen(addr) }

// Dial connects to addr, applying the active faults. Every attempt is
// counted, including refused ones.
func (n *Netem) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	n.dials[addr]++
	cut := n.cut[addr]
	n.mu.Unlock()
	if cut {
		return nil, ErrConnRefused
	}
	// A hung server still accepts: dial the real listener so the accept
	// happens, then let the wrapper stall the traffic.
	inner, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return newNetemConn(n, addr, inner), nil
}

// Hang makes addr accept-then-stall: connections open but carry no
// traffic until Restore.
func (n *Netem) Hang(addr string) {
	n.mu.Lock()
	n.hung[addr] = true
	n.mu.Unlock()
}

// Delay holds the response bytes that arrive from addr from now on
// back by d.
func (n *Netem) Delay(addr string, d time.Duration) {
	n.mu.Lock()
	n.delay[addr] = d
	n.mu.Unlock()
}

// Cut kills addr: new dials are refused and established connections
// error on use, until Restore.
func (n *Netem) Cut(addr string) {
	n.mu.Lock()
	n.cut[addr] = true
	n.mu.Unlock()
}

// Restore clears every fault on addr.
func (n *Netem) Restore(addr string) {
	n.mu.Lock()
	delete(n.cut, addr)
	delete(n.hung, addr)
	delete(n.delay, addr)
	n.mu.Unlock()
}

// DialCount returns how many dials addr has received (including
// refused ones).
func (n *Netem) DialCount(addr string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dials[addr]
}

// netemConn applies the current faults of its destination on every
// read and write, so a fault engaged mid-connection takes effect on
// in-flight traffic too. A pump goroutine reads the inner connection as
// bytes arrive and stamps each delivery with its due time — arrival
// plus the delay in force then — so bytes that arrive together are
// held back once, however many Reads take them (a frame written as two
// vectors arrives as two deliveries a moment apart).
type netemConn struct {
	net   *Netem
	addr  string
	inner Conn

	// The pump reads into a buffer from free and hands it over on in;
	// the reader gives it back once drained. A fixed set of buffers
	// circulates, so a delivery allocates nothing.
	free chan []byte
	in   chan delivery
	done chan struct{} // closed by Close: the pump stops
	cur  delivery      // the delivery the reader is draining
	err  error         // the inner connection's failure, once delivered

	mu     sync.Mutex
	closed bool
}

// delivery is one inner Read: its bytes (data, within buf) or its
// error, and when they may be handed on.
type delivery struct {
	buf, data []byte
	err       error
	due       time.Time
}

func newNetemConn(n *Netem, addr string, inner Conn) *netemConn {
	c := &netemConn{net: n, addr: addr, inner: inner,
		free: make(chan []byte, 4), in: make(chan delivery, 4), done: make(chan struct{})}
	for range cap(c.free) {
		c.free <- make([]byte, 16<<10)
	}
	go c.pump()
	return c
}

// pump reads the inner connection until it fails, which Close causes.
func (c *netemConn) pump() {
	for {
		var buf []byte
		select {
		case buf = <-c.free:
		case <-c.done:
			return
		}
		n, err := c.inner.Read(buf)
		c.net.mu.Lock()
		delay := c.net.delay[c.addr]
		c.net.mu.Unlock()
		select {
		case c.in <- delivery{buf: buf, data: buf[:n], err: err, due: time.Now().Add(delay)}:
		case <-c.done:
			return
		}
		if err != nil {
			return
		}
	}
}

func (c *netemConn) faults() (hung, cut, closed bool) {
	c.net.mu.Lock()
	hung = c.net.hung[c.addr]
	cut = c.net.cut[c.addr]
	c.net.mu.Unlock()
	c.mu.Lock()
	closed = c.closed
	c.mu.Unlock()
	return hung, cut, closed
}

// Read delivers the inner connection's bytes once they are due. A
// delay set while this reader was already waiting applies to the
// delivery it was waiting for: the pump reads the delay as the bytes
// arrive.
func (c *netemConn) Read(p []byte) (int, error) {
	for {
		hung, cut, closed := c.faults()
		if closed {
			return 0, ErrClosed
		}
		if cut {
			return 0, ErrConnRefused
		}
		if !hung {
			break
		}
		// Stalled link: poll until the fault clears or the conn closes.
		time.Sleep(time.Millisecond)
	}
	if c.cur.buf == nil {
		if c.err != nil {
			return 0, c.err
		}
		select {
		case c.cur = <-c.in:
		case <-c.done:
			return 0, ErrClosed
		}
	}
	time.Sleep(time.Until(c.cur.due))
	n := copy(p, c.cur.data)
	if c.cur.data = c.cur.data[n:]; len(c.cur.data) == 0 {
		c.free <- c.cur.buf
		c.err, c.cur = c.cur.err, delivery{}
		if n == 0 {
			return 0, c.err
		}
	}
	return n, nil
}

func (c *netemConn) Write(p []byte) (int, error) {
	hung, cut, closed := c.faults()
	if closed {
		return 0, ErrClosed
	}
	if cut {
		return 0, ErrConnRefused
	}
	if hung {
		// Swallowed by the stalled link: the caller sees a successful
		// write that the server never receives.
		return len(p), nil
	}
	return c.inner.Write(p)
}

func (c *netemConn) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	c.mu.Unlock()
	return c.inner.Close()
}
