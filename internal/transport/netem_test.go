package transport

import (
	"errors"
	"testing"
	"time"
)

// startByteEcho runs a byte-level echo server on addr.
func startByteEcho(t *testing.T, n Network, addr string) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 1024)
				for {
					n, err := conn.Read(buf)
					if err != nil {
						return
					}
					if _, err := conn.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
}

func TestNetemCutRefusesDialsAndCounts(t *testing.T) {
	netem := NewNetem(NewInproc(Shape{}))
	startByteEcho(t, netem, "srv")

	conn, err := netem.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if got := netem.DialCount("srv"); got != 1 {
		t.Fatalf("dial count %d, want 1", got)
	}

	netem.Cut("srv")
	if _, err := netem.Dial("srv"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("dial to cut server: %v, want ErrConnRefused", err)
	}
	if got := netem.DialCount("srv"); got != 2 {
		t.Fatalf("refused dial not counted: %d, want 2", got)
	}

	netem.Restore("srv")
	conn, err = netem.Dial("srv")
	if err != nil {
		t.Fatalf("dial after restore: %v", err)
	}
	conn.Close()
}

func TestNetemHangSwallowsTraffic(t *testing.T) {
	netem := NewNetem(NewInproc(Shape{}))
	startByteEcho(t, netem, "srv")

	conn, err := netem.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Healthy round trip first.
	if _, err := conn.Write([]byte("one")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil || string(buf[:n]) != "one" {
		t.Fatalf("echo: %q, %v", buf[:n], err)
	}

	// Hang: the write "succeeds" but is swallowed, and no response
	// bytes are delivered.
	netem.Hang("srv")
	if _, err := conn.Write([]byte("two")); err != nil {
		t.Fatalf("write to hung server must not error (it is swallowed): %v", err)
	}
	got := make(chan string, 1)
	go func() {
		n, err := conn.Read(buf)
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		got <- string(buf[:n])
	}()
	select {
	case v := <-got:
		t.Fatalf("read delivered %q while server hung", v)
	case <-time.After(50 * time.Millisecond):
	}

	// Restore: new traffic flows again; the swallowed "two" is gone.
	netem.Restore("srv")
	if _, err := conn.Write([]byte("three")); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "three" {
			t.Fatalf("after restore got %q, want %q", v, "three")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no traffic after restore")
	}
}

func TestNetemDelay(t *testing.T) {
	netem := NewNetem(NewInproc(Shape{}))
	startByteEcho(t, netem, "srv")

	conn, err := netem.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const d = 30 * time.Millisecond
	netem.Delay("srv", d)
	start := time.Now()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("delayed echo returned in %v, want >= %v", elapsed, d)
	}

	netem.Restore("srv")
	start = time.Now()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= d {
		t.Fatalf("echo still delayed (%v) after restore", elapsed)
	}
}

// TestNetemDelayAppliesToWaitingReader: a delay set while a reader is
// already parked in the inner Read — every idle connection's reader is —
// holds back the delivery that reader is waiting for, not only the ones
// after it.
func TestNetemDelayAppliesToWaitingReader(t *testing.T) {
	netem := NewNetem(NewInproc(Shape{}))
	startByteEcho(t, netem, "srv")

	conn, err := netem.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	got := make(chan error, 1)
	read := func() {
		buf := make([]byte, 16)
		_, err := conn.Read(buf)
		got <- err
	}
	// The first round trip is undelayed; the reader of the second is
	// parked before the delay is set.
	go read()
	if _, err := conn.Write([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	go read()
	time.Sleep(10 * time.Millisecond)

	const d = 30 * time.Millisecond
	netem.Delay("srv", d)
	start := time.Now()
	if _, err := conn.Write([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("the waiting reader's delivery took %v, want >= %v", elapsed, d)
	}
}

// TestNetemDelayHoldsAFrameOnce: a frame written as two vectors — a
// header and a value past wire.FrameInlineThreshold — arrives as two
// deliveries, which the reader takes in two Reads. Delay(d) holds bytes
// back from their arrival, so the two are held back together: the whole
// frame reads in under 1.5 d, where a delay per Read made it 2 d.
func TestNetemDelayHoldsAFrameOnce(t *testing.T) {
	netem := NewNetem(NewInproc(Shape{}))
	l, err := netem.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	head, value := make([]byte, 16), make([]byte, 6000)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			if _, err := conn.Read(make([]byte, 1)); err != nil {
				return
			}
			if _, err := conn.Write(head); err != nil {
				return
			}
			if _, err := conn.Write(value); err != nil {
				return
			}
		}
	}()
	conn, err := netem.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const d = 50 * time.Millisecond
	netem.Delay("srv", d)
	start := time.Now()
	if _, err := conn.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	reads := 0
	for got, want := 0, len(head)+len(value); got < want; reads++ {
		n, err := conn.Read(make([]byte, want-got))
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	elapsed := time.Since(start)
	if reads < 2 {
		t.Fatalf("the frame arrived in %d read; the test needs two", reads)
	}
	if elapsed < d || elapsed >= d+d/2 {
		t.Fatalf("a two-vector frame read in %v (%d reads) under a %v delay, want [%v, %v)", elapsed, reads, d, d, d+d/2)
	}
}

func TestNetemClosedConnStopsPolling(t *testing.T) {
	netem := NewNetem(NewInproc(Shape{}))
	startByteEcho(t, netem, "srv")
	conn, err := netem.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	netem.Hang("srv")
	done := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 8))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read on closed hung conn returned nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read did not unblock after Close on a hung conn")
	}
}
