package transport

import (
	"sync"
	"time"

	"ecstore/internal/bufpool"
)

// Inproc is an in-process Network. Connections are buffered duplex
// pipes; an optional Shape emulates link latency and bandwidth. It is
// safe for concurrent use. The zero value is not usable; call NewInproc.
type Inproc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
	shape     Shape
}

// NewInproc returns an in-process network with the given link shape
// (use Shape{} for an ideal, instantaneous network).
func NewInproc(shape Shape) *Inproc {
	return &Inproc{listeners: make(map[string]*inprocListener), shape: shape}
}

var _ Network = (*Inproc)(nil)

// Listen binds addr.
func (n *Inproc) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, ErrAddrInUse
	}
	l := &inprocListener{
		net:    n,
		addr:   addr,
		accept: make(chan Conn),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to addr, failing with ErrConnRefused if nothing
// listens there.
func (n *Inproc) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, ErrConnRefused
	}
	c2s := newPipe(n.shape)
	s2c := newPipe(n.shape)
	clientConn := &pipeConn{r: s2c, w: c2s}
	serverConn := &pipeConn{r: c2s, w: s2c}
	select {
	case l.accept <- serverConn:
		return clientConn, nil
	case <-l.done:
		return nil, ErrConnRefused
	}
}

type inprocListener struct {
	net    *Inproc
	addr   string
	accept chan Conn
	done   chan struct{}
	once   sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// pipeConn joins two unidirectional pipes into a Conn.
type pipeConn struct {
	r, w *pipe
}

func (c *pipeConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *pipeConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// Close shuts both directions: the peer's reads drain then EOF, and
// the peer's writes fail. What this side had not read yet is dropped —
// nobody is left to read it.
func (c *pipeConn) Close() error {
	c.r.Close(true)
	c.w.Close(false)
	return nil
}

// segment is a block of written bytes that becomes readable at ready.
// buf is the whole lease, data the part of it not read yet.
type segment struct {
	buf, data []byte
	ready     time.Time
}

// pipe is a unidirectional buffered byte stream with optional shaping.
// It is the in-process stand-in for a kernel socket buffer: each Write
// is copied into a buffer leased from bufpool.Default (returned once
// Read has drained it), and the segments queue in a ring that is reused
// as it drains.
type pipe struct {
	mu       sync.Mutex
	cond     *sync.Cond
	segs     []segment // ring: count segments starting at head
	head     int
	count    int
	closed   bool
	shape    Shape
	lastDone time.Time // when the link finishes the previous segment
}

func newPipe(shape Shape) *pipe {
	p := &pipe{shape: shape}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pipe) Write(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	buf := bufpool.Default.GetRaw(len(b))
	copy(buf, b)

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		bufpool.Default.Put(buf)
		return 0, ErrClosed
	}
	ready := time.Time{}
	if !p.shape.zero() {
		now := time.Now()
		start := now
		if p.lastDone.After(start) {
			start = p.lastDone
		}
		done := start.Add(p.shape.delay(len(b)))
		p.lastDone = done
		ready = done.Add(p.shape.Latency)
	}
	if p.count == len(p.segs) {
		// Full (or not yet sized): double the ring, oldest segment first.
		grown := make([]segment, max(4, 2*len(p.segs)))
		for i := 0; i < p.count; i++ {
			grown[i] = p.segs[(p.head+i)%len(p.segs)]
		}
		p.segs, p.head = grown, 0
	}
	p.segs[(p.head+p.count)%len(p.segs)] = segment{buf: buf, data: buf, ready: ready}
	p.count++
	p.cond.Broadcast()
	return len(b), nil
}

func (p *pipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.count > 0 {
			seg := &p.segs[p.head]
			if seg.ready.IsZero() || !time.Now().Before(seg.ready) {
				n := copy(b, seg.data)
				seg.data = seg.data[n:]
				if len(seg.data) == 0 {
					p.pop()
				}
				return n, nil
			}
			// Shaped segment not yet deliverable: sleep until it is,
			// releasing the lock meanwhile.
			wait := time.Until(seg.ready)
			p.mu.Unlock()
			time.Sleep(wait)
			p.mu.Lock()
			continue
		}
		if p.closed {
			return 0, errEOF
		}
		p.cond.Wait()
	}
}

// pop returns the drained (or abandoned) head segment's lease and
// frees its ring slot. Caller holds p.mu.
func (p *pipe) pop() {
	seg := &p.segs[p.head]
	bufpool.Default.Put(seg.buf)
	*seg = segment{}
	p.head = (p.head + 1) % len(p.segs)
	p.count--
}

// Close ends the stream: writes fail, and reads drain what was written
// and then report EOF — unless it is the reading side that closes
// (drop), which abandons the unread segments and returns their leases.
func (p *pipe) Close(drop bool) {
	p.mu.Lock()
	p.closed = true
	for drop && p.count > 0 {
		p.pop()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}
