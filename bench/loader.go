package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"time"

	"ecstore/internal/core"
)

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opMGet
)

// op is one client call of a workload's stream: a Get or Set of key
// table entry key, or a multi-get of entries keys.
type op struct {
	kind opKind
	key  int
	keys []int
}

// recorder counts what a phase's calls did. Every call is attempted
// once and fails if it returns an error or a value that does not
// verify. Latency samples are kept only in the timed phase.
type recorder struct {
	keep         bool
	getNs, setNs []int64
	ops          int64 // completed client calls (a multi-get is one)
	userBytes    int64 // value bytes those calls read and wrote
	attempted    int64
	failed       int64
	firstErr     error
	log          *spanLog
}

func (r *recorder) done(kind opKind, start, end time.Time, nbytes int, err error) {
	r.attempted++
	r.ops++
	r.userBytes += int64(nbytes)
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	if !r.keep {
		return
	}
	if kind == opSet {
		r.setNs = append(r.setNs, int64(end.Sub(start)))
	} else {
		r.getNs = append(r.getNs, int64(end.Sub(start)))
	}
	if r.log.enabled() {
		r.log.add(layerCall, start, end)
	}
}

// preloadErr is non-nil if any call so far failed: a data set with holes
// is not worth measuring.
func (r *recorder) preloadErr() error {
	if r.failed == 0 {
		return nil
	}
	return fmt.Errorf("preload: %d of %d sets failed: %w", r.failed, r.attempted, r.firstErr)
}

// loadStats describes the data set right after preload, before any
// fault: the value bytes written, what they would occupy at the mode's
// ideal expansion (N/K or F), and what the servers' stores report.
type loadStats struct {
	user, ideal, used, items int64
}

// workload is one traffic shape against a running stack.
type workload interface {
	// setup loads the data set and leaves the stack ready for measured
	// calls: faults injected, measured client (and proxy) in place.
	setup(rec *recorder) error
	// loaded says what the preload left in the stores.
	loaded() loadStats
	// next draws the next unit of the op stream: one call, or for
	// burst-1m one burst. It is a pure function of rng and of the units
	// drawn before it.
	next(rng *rand.Rand) op
	// run executes one unit and returns when every call in it has
	// completed: the loop is closed.
	run(o op, rec *recorder)
	// audit re-reads keys the stream writes but never reads.
	audit(rec *recorder)
}

// kvWorkload is the blocking closed loop shared by ycsb-b-1k,
// degraded-64k and proxy-mget: one caller, one call in flight. Calls go
// to the core client, or through conn to the proxy when conn is set.
type kvWorkload struct {
	sp    *spec
	st    *stack
	g     *valueGen
	keys  []string
	sizes []int
	ver   []uint32 // version last written per key; 0 = never written
	load  loadStats
	conn  *mcConn
	draw  func(rng *rand.Rand) op
	// prepare is the workload's set-up: preload, faults, measured client.
	prepare func(rec *recorder) error
	// ring is the next slot of degraded-64k's write ring.
	ring int
	// scratch backs op.keys between next and run.
	scratch []int
}

func (w *kvWorkload) setup(rec *recorder) error { return w.prepare(rec) }

func (w *kvWorkload) loaded() loadStats { return w.load }

func (w *kvWorkload) next(rng *rand.Rand) op { return w.draw(rng) }

func (w *kvWorkload) set(k int, rec *recorder) {
	key := w.keys[k]
	val := w.g.make(key, w.ver[k]+1, w.sizes[k])
	var err error
	start := time.Now()
	if w.conn != nil {
		err = w.conn.set(key, val)
	} else {
		err = w.st.client.Set(key, val)
	}
	end := time.Now()
	if err == nil {
		w.ver[k]++
	}
	rec.done(opSet, start, end, len(val), err)
}

func (w *kvWorkload) get(k int, rec *recorder) {
	key := w.keys[k]
	start := time.Now()
	got, err := w.st.client.Get(key)
	end := time.Now()
	if err == nil {
		err = w.g.check(key, w.ver[k], got)
	}
	rec.done(opGet, start, end, len(got), err)
}

func (w *kvWorkload) mget(ks []int, rec *recorder) {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = w.keys[k]
	}
	var nbytes int
	var bad error
	seen := 0
	start := time.Now()
	err := w.conn.mget(names, func(i int, val []byte) {
		seen++
		nbytes += len(val)
		if cerr := w.g.check(names[i], w.ver[ks[i]], val); cerr != nil && bad == nil {
			bad = cerr
		}
	})
	end := time.Now()
	switch {
	case err != nil:
	case bad != nil:
		err = bad
	case seen != len(ks):
		err = fmt.Errorf("multi-get returned %d of %d keys", seen, len(ks))
	}
	rec.done(opMGet, start, end, nbytes, err)
}

func (w *kvWorkload) run(o op, rec *recorder) {
	switch o.kind {
	case opSet:
		w.set(o.key, rec)
	case opGet:
		w.get(o.key, rec)
	case opMGet:
		w.mget(o.keys, rec)
	}
}

// preload writes version 1 of keys [0, n).
func (w *kvWorkload) preload(n int, rec *recorder) error {
	for k := 0; k < n; k++ {
		w.set(k, rec)
		w.load.user += int64(w.sizes[k])
		w.load.ideal += w.sp.idealStored(w.sizes[k])
	}
	w.load.used, w.load.items = w.st.storedBytes()
	return rec.preloadErr()
}

// audit re-reads the keys beyond the preloaded ones: degraded-64k's
// write ring. The other workloads have none; their reads cover what
// they write.
func (w *kvWorkload) audit(rec *recorder) {
	for k := w.sp.records; k < len(w.keys); k++ {
		if w.ver[k] > 0 {
			w.get(k, rec)
		}
	}
}

// burstWorkload is burst-1m: one goroutine keeping up to burstWindow
// non-blocking calls in flight. A burst writes burstKeys fresh keys
// with ISet, waits for them, and reads them back with IGet.
type burstWorkload struct {
	sp      *spec
	st      *stack
	g       *valueGen
	nextKey int
	load    loadStats
}

const (
	burstKeys   = 16
	burstWindow = 4
)

func (w *burstWorkload) loaded() loadStats { return w.load }

// next returns a burst; op.key is the index of its first fresh key.
func (w *burstWorkload) next(*rand.Rand) op {
	o := op{kind: opSet, key: w.nextKey}
	w.nextKey += burstKeys
	return o
}

func (w *burstWorkload) setup(rec *recorder) error {
	var err error
	if w.st.client, err = w.st.newClient(0); err != nil {
		return err
	}
	for i := 0; i < w.sp.records; i += burstKeys {
		w.window(opSet, w.next(nil).key, rec)
	}
	if err := rec.preloadErr(); err != nil {
		return err
	}
	for i := 0; i < w.nextKey; i++ {
		w.load.user += int64(w.size(i))
		w.load.ideal += w.sp.idealStored(w.size(i))
	}
	w.load.used, w.load.items = w.st.storedBytes()
	// A fresh client for the measured phases, as on the other workloads.
	w.st.client.Close()
	w.st.client, err = w.st.newClient(0)
	return err
}

func (w *burstWorkload) key(i int) string { return w.g.key("b", i) }
func (w *burstWorkload) size(i int) int   { return w.g.size(w.key(i), w.sp.valueSize) }

func (w *burstWorkload) run(o op, rec *recorder) {
	w.window(opSet, o.key, rec)
	w.window(opGet, o.key, rec)
}

func (w *burstWorkload) audit(*recorder) {}

// window issues kind for keys [first, first+burstKeys) with at most
// burstWindow calls in flight and returns when all have completed. A
// call's latency runs from its issue to the moment its future is done.
func (w *burstWorkload) window(kind opKind, first int, rec *recorder) {
	type slot struct {
		f     *core.Future
		start time.Time
		key   string
		n     int
	}
	var slots [burstWindow]slot
	var done [burstWindow]<-chan struct{}
	issued, inflight := 0, 0
	for issued < burstKeys || inflight > 0 {
		for i := range slots {
			if slots[i].f != nil || issued == burstKeys {
				continue
			}
			s := &slots[i]
			s.key = w.key(first + issued)
			issued++
			inflight++
			if kind == opSet {
				val := w.g.make(s.key, 1, w.g.size(s.key, w.sp.valueSize))
				s.n = len(val)
				s.start = time.Now()
				s.f = w.st.client.ISet(s.key, val)
			} else {
				s.start = time.Now()
				s.f = w.st.client.IGet(s.key)
			}
			done[i] = s.f.Done()
		}
		var i int
		select {
		case <-done[0]:
			i = 0
		case <-done[1]:
			i = 1
		case <-done[2]:
			i = 2
		case <-done[3]:
			i = 3
		}
		end := time.Now()
		s := &slots[i]
		got, err := s.f.Wait()
		if kind == opGet {
			s.n = len(got)
			if err == nil {
				err = w.g.check(s.key, 1, got)
			}
		}
		rec.done(kind, s.start, end, s.n, err)
		s.f, done[i] = nil, nil
		inflight--
	}
}

// mcConn is a dependency-free memcached ASCII client: one connection,
// one command in flight.
type mcConn struct {
	c   net.Conn
	r   *bufio.Reader
	buf []byte // command line scratch
	val []byte // value scratch, valid until the next command
}

func dialProxy(addr string) (*mcConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // request/response: nothing to coalesce
	}
	return &mcConn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (m *mcConn) close() { _ = m.c.Close() }

var crlf = []byte("\r\n")

func (m *mcConn) line() ([]byte, error) {
	l, err := m.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

func (m *mcConn) set(key string, val []byte) error {
	b := append(m.buf[:0], "set "...)
	b = append(b, key...)
	b = append(b, " 0 0 "...)
	b = strconv.AppendInt(b, int64(len(val)), 10)
	b = append(b, crlf...)
	b = append(b, val...)
	b = append(b, crlf...)
	m.buf = b
	if _, err := m.c.Write(b); err != nil {
		return err
	}
	l, err := m.line()
	if err != nil {
		return err
	}
	if string(l) != "STORED" {
		return fmt.Errorf("set %s: proxy answered %q", key, l)
	}
	return nil
}

// mget sends one `get` of keys and calls each(i, value) for every key
// returned, in request order; value is only valid during the call.
func (m *mcConn) mget(keys []string, each func(i int, val []byte)) error {
	b := append(m.buf[:0], "get"...)
	for _, k := range keys {
		b = append(b, ' ')
		b = append(b, k...)
	}
	b = append(b, crlf...)
	m.buf = b
	if _, err := m.c.Write(b); err != nil {
		return err
	}
	i := 0
	for {
		l, err := m.line()
		if err != nil {
			return err
		}
		if string(l) == "END" {
			return nil
		}
		// VALUE <key> <flags> <bytes>
		f := bytes.Fields(l)
		if len(f) != 4 || string(f[0]) != "VALUE" {
			return fmt.Errorf("get: proxy answered %q", l)
		}
		for i < len(keys) && keys[i] != string(f[1]) {
			i++ // a key the proxy did not return
		}
		if i == len(keys) {
			return fmt.Errorf("get: unrequested or out-of-order key %q", f[1])
		}
		n, err := strconv.Atoi(string(f[3]))
		if err != nil || n < 0 {
			return fmt.Errorf("get: bad length in %q", l)
		}
		if cap(m.val) < n+2 {
			m.val = make([]byte, n+2)
		}
		data := m.val[:n+2]
		if _, err := io.ReadFull(m.r, data); err != nil {
			return err
		}
		if !bytes.Equal(data[n:], crlf) {
			return errors.New("get: value not terminated by CRLF")
		}
		each(i, data[:n])
		i++
	}
}
