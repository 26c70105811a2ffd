package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"ecstore/internal/bufpool"
)

// networksUnderTest returns each Network implementation with a
// function producing fresh test addresses.
func networksUnderTest() map[string]struct {
	net  Network
	addr func(i int) string
} {
	return map[string]struct {
		net  Network
		addr func(i int) string
	}{
		"inproc": {NewInproc(Shape{}), func(i int) string { return fmt.Sprintf("node-%d", i) }},
		"tcp":    {TCP{}, func(int) string { return "127.0.0.1:0" }},
	}
}

func TestEchoRoundTrip(t *testing.T) {
	for name, tc := range networksUnderTest() {
		t.Run(name, func(t *testing.T) {
			l, err := tc.net.Listen(tc.addr(1))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
			c, err := tc.net.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			msg := []byte("hello transport")
			if _, err := c.Write(msg); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(c, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("echo = %q", got)
			}
		})
	}
}

func TestLargeTransfer(t *testing.T) {
	for name, tc := range networksUnderTest() {
		t.Run(name, func(t *testing.T) {
			l, err := tc.net.Listen(tc.addr(2))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			const size = 4 << 20
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				buf := make([]byte, size)
				for i := range buf {
					buf[i] = byte(i)
				}
				_, _ = c.Write(buf)
			}()
			c, err := tc.net.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got := make([]byte, size)
			if _, err := io.ReadFull(c, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != byte(i) {
					t.Fatalf("byte %d = %d", i, got[i])
				}
			}
		})
	}
}

func TestDialRefused(t *testing.T) {
	n := NewInproc(Shape{})
	if _, err := n.Dial("nobody"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("got %v", err)
	}
}

func TestListenInUse(t *testing.T) {
	n := NewInproc(Shape{})
	if _, err := n.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("got %v", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := NewInproc(Shape{})
	l, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept returned %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock")
	}
	// Address is released after Close.
	if _, err := n.Listen("a"); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
}

func TestCloseGivesEOFAfterDrain(t *testing.T) {
	n := NewInproc(Shape{})
	l, _ := n.Listen("a")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		_, _ = c.Write([]byte("bye"))
		c.Close()
	}()
	c, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "bye" {
		t.Fatalf("got %q", got)
	}
}

// TestPipeLeasesAndRing: the in-process pipe keeps each Write in a
// bufpool.Default lease and its segments in a ring. Bytes must come out
// in order across ring wrap-around and growth, every lease must be back
// once the data is read, and data still unread when both ends close —
// the reader's end dropping it — must be given back too.
func TestPipeLeasesAndRing(t *testing.T) {
	outstanding := func() uint64 {
		st := bufpool.Default.Stats()
		return st.Gets - st.Puts
	}
	baseline := outstanding()
	// settled polls briefly: goroutines of earlier tests may still be
	// closing pipes of their own.
	settled := func() uint64 {
		for deadline := time.Now().Add(2 * time.Second); outstanding() != baseline && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return outstanding() - baseline
	}
	n := NewInproc(Shape{})
	l, _ := n.Listen("a")
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted

	// Bursts of growing size, each written whole and then read whole, so
	// the ring fills to a new high-water mark, drains and wraps.
	var want, got []byte
	seq := byte(0)
	for burst := 1; burst <= 40; burst++ {
		for i := 0; i < burst; i++ {
			msg := bytes.Repeat([]byte{seq}, 1+int(seq)%700)
			seq++
			want = append(want, msg...)
			if _, err := c.Write(msg); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 333) // never a whole segment's multiple
		for len(got) < len(want) {
			k, err := srv.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, buf[:k]...)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes reordered or lost across the ring")
	}
	if d := settled(); d != 0 {
		t.Fatalf("%d leases outstanding with everything read", d)
	}

	// Unread data in both directions, then both ends close.
	for i := 0; i < 5; i++ {
		_, _ = c.Write(bytes.Repeat([]byte{'c'}, 2000))
		_, _ = srv.Write(bytes.Repeat([]byte{'s'}, 2000))
	}
	c.Close()
	srv.Close()
	if d := settled(); d != 0 {
		t.Fatalf("%d leases outstanding after both ends closed", d)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	n := NewInproc(Shape{})
	l, _ := n.Listen("a")
	go func() {
		c, _ := l.Accept()
		if c != nil {
			defer c.Close()
			buf := make([]byte, 16)
			_, _ = c.Read(buf)
		}
	}()
	c, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
}

func TestConcurrentConnections(t *testing.T) {
	n := NewInproc(Shape{})
	l, _ := n.Listen("srv")
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()
	defer l.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial("srv")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			msg := []byte(fmt.Sprintf("client-%d", i))
			for rep := 0; rep < 50; rep++ {
				if _, err := c.Write(msg); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got := make([]byte, len(msg))
				if _, err := io.ReadFull(c, got); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(got, msg) {
					t.Errorf("echo mismatch: %q", got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestShapeLatency(t *testing.T) {
	shape := Shape{Latency: 20 * time.Millisecond}
	n := NewInproc(shape)
	l, _ := n.Listen("a")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = c.Write([]byte("pong"))
	}()
	c, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	got := make([]byte, 4)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("shaped read took only %v, want >= ~20ms", elapsed)
	}
}

func TestShapeBandwidth(t *testing.T) {
	// 1 MB/s: 100 KB should take ~100ms.
	shape := Shape{BytesPerSec: 1 << 20}
	n := NewInproc(shape)
	l, _ := n.Listen("a")
	const size = 100 << 10
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = c.Write(make([]byte, size))
	}()
	c, err := n.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := io.ReadFull(c, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 70*time.Millisecond {
		t.Fatalf("bandwidth-shaped read took %v, want >= ~95ms", elapsed)
	}
}

func TestShapeDelayMath(t *testing.T) {
	s := Shape{BytesPerSec: 1000}
	if d := s.delay(500); d != 500*time.Millisecond {
		t.Fatalf("delay = %v", d)
	}
	if d := (Shape{}).delay(500); d != 0 {
		t.Fatalf("unshaped delay = %v", d)
	}
	if !(Shape{}).zero() {
		t.Fatal("Shape{} not zero")
	}
	if s.zero() {
		t.Fatal("shaped reported zero")
	}
}

func TestTCPEphemeralAddr(t *testing.T) {
	l, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr() == "127.0.0.1:0" {
		t.Fatal("listener did not resolve ephemeral port")
	}
	l.Close()
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("accept after close: %v", err)
	}
}
