package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/bufpool"
)

// gateWriter is the connection under a FrameQueue test. Each Write
// announces itself on entered (when set), then waits for a token on
// gate (when set); a token carrying an error makes that Write fail.
// Tests use it to hold the flusher inside a write while they pile
// frames up behind it.
type gateWriter struct {
	entered chan struct{}
	gate    chan error
	delay   time.Duration // a slow device, for the concurrent test

	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *gateWriter) Write(b []byte) (int, error) {
	if w.entered != nil {
		w.entered <- struct{}{}
	}
	if w.gate != nil {
		if err := <-w.gate; err != nil {
			return 0, err
		}
	}
	if w.delay > 0 {
		time.Sleep(w.delay)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(b)
}

func (w *gateWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

// testFrame encodes the i-th request of producer and returns the frame
// with its reference encoding. Every fifth value is too large to inline,
// so batches mix one-vector and two-vector frames.
func testFrame(t *testing.T, p *bufpool.Pool, producer, i int) (Frame, []byte) {
	t.Helper()
	size := 64
	if i%5 == 0 {
		size = FrameInlineThreshold + 100
	}
	req := &Request{ID: uint64(i + 1), Op: OpSet, Key: fmt.Sprintf("p%d", producer),
		Value: bytes.Repeat([]byte{byte(producer*31 + i)}, size)}
	enc, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	f, err := EncodeRequestFrame(p, req)
	if err != nil {
		t.Fatal(err)
	}
	return f, enc
}

// holdFlusher enqueues producer 0's frame 0 on a goroutine of its own
// and returns once that call is the flusher, inside Write. The returned
// channel delivers the call's result.
func holdFlusher(t *testing.T, q *FrameQueue, p *bufpool.Pool, w *gateWriter) (<-chan error, []byte) {
	t.Helper()
	f, enc := testFrame(t, p, 0, 0)
	done := make(chan error, 1)
	go func() { done <- q.Enqueue(f) }()
	<-w.entered
	return done, enc
}

func TestFrameQueueBatchesBehindFlusher(t *testing.T) {
	p := bufpool.New()
	w := &gateWriter{entered: make(chan struct{}, 64), gate: make(chan error)}
	q := NewFrameQueue(w, 64, p, nil)

	flusher, first := holdFlusher(t, q, p, w)
	var want bytes.Buffer
	want.Write(first)
	// With a flush in progress these append and return: none of them
	// writes, none of them blocks.
	const behind = 23
	for i := 1; i <= behind; i++ {
		f, enc := testFrame(t, p, 0, i)
		want.Write(enc)
		if err := q.Enqueue(f); err != nil {
			t.Fatal(err)
		}
	}
	if batches, _ := q.Stats(); batches != 0 {
		t.Fatalf("%d batches counted while the first write is still held", batches)
	}

	// Close must wait for the flush and let it drain what is queued.
	closed := make(chan struct{})
	go func() { _ = q.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a flush in progress")
	case <-time.After(20 * time.Millisecond):
	}
	close(w.gate)
	if err := <-flusher; err != nil {
		t.Fatal(err)
	}
	<-closed

	if got := w.bytes(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("queue output differs: %d bytes vs %d expected", len(got), want.Len())
	}
	// The held frame was one batch; everything queued behind it rode
	// the flusher's second pass as one more.
	if batches, frames := q.Stats(); batches != 2 || frames != behind+1 {
		t.Fatalf("%d batches / %d frames, want 2 / %d", batches, frames, behind+1)
	}
	f, _ := testFrame(t, p, 0, 99)
	if err := q.Enqueue(f); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("enqueue after close: %v", err)
	}
	mustBalance(t, p)
}

func TestFrameQueueConcurrentProducers(t *testing.T) {
	const producers, perProducer = 8, 150
	p := bufpool.New()
	w := &gateWriter{delay: 20 * time.Microsecond}
	q := NewFrameQueue(w, 16, p, nil)

	want := make([][]byte, producers)
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		frames := make([]Frame, perProducer)
		for i := range frames {
			var enc []byte
			frames[i], enc = testFrame(t, p, pr, i)
			want[pr] = append(want[pr], enc...)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range frames {
				if err := q.Enqueue(f); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Nothing is queued once the last Enqueue has returned: either that
	// call flushed, or the flusher it handed to has since finished.
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-encoding the stream frame by frame and sorting it by producer
	// must reproduce each producer's own byte stream: every frame once,
	// in the order its producer enqueued it, bit for bit.
	got := make(map[string][]byte, producers)
	br := bufio.NewReader(bytes.NewReader(w.bytes()))
	for n := 0; n < producers*perProducer; n++ {
		req, err := ReadRequestPooled(br, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		got[req.Key] = append(got[req.Key], enc...)
	}
	if br.Buffered() != 0 {
		t.Fatalf("%d stray bytes after the last frame", br.Buffered())
	}
	for pr := range want {
		if !bytes.Equal(got[fmt.Sprintf("p%d", pr)], want[pr]) {
			t.Fatalf("producer %d: stream differs from its enqueue order", pr)
		}
	}
	batches, frames := q.Stats()
	if frames != producers*perProducer {
		t.Fatalf("wrote %d frames, want %d", frames, producers*perProducer)
	}
	if batches >= frames {
		t.Fatalf("no coalescing: %d batches for %d frames", batches, frames)
	}
	t.Logf("%d frames in %d batches (%.1f per batch)", frames, batches, float64(frames)/float64(batches))
	mustBalance(t, p)
}

func TestFrameQueueWriteErrorReleasesEverything(t *testing.T) {
	p := bufpool.New()
	w := &gateWriter{entered: make(chan struct{}, 8), gate: make(chan error)}
	var fired atomic.Int32
	q := NewFrameQueue(w, 64, p, func(error) { fired.Add(1) })

	flusher, _ := holdFlusher(t, q, p, w)
	for i := 1; i <= 5; i++ {
		f, _ := testFrame(t, p, 0, i)
		if err := q.Enqueue(f); err != nil {
			t.Fatal(err)
		}
	}
	down := errors.New("wire down")
	w.gate <- down
	if err := <-flusher; !errors.Is(err, down) {
		t.Fatalf("flusher got %v, want the write error", err)
	}
	// The queue has stopped: nothing is written again, later frames are
	// refused with the same error, and onError ran exactly once.
	for i := 6; i < 9; i++ {
		f, _ := testFrame(t, p, 0, i)
		if err := q.Enqueue(f); !errors.Is(err, down) {
			t.Fatalf("enqueue after failure: %v", err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("onError fired %d times, want 1", n)
	}
	if len(w.entered) != 0 || len(w.bytes()) != 0 {
		t.Fatal("frames behind the failed write still reached the writer")
	}
	mustBalance(t, p)
}

func TestFrameQueueBoundBlocksProducersNotFlusher(t *testing.T) {
	const max = 4
	p := bufpool.New()
	w := &gateWriter{entered: make(chan struct{}, 8), gate: make(chan error)}
	q := NewFrameQueue(w, max, p, nil)

	// The flusher's own frame has left the queue by the time it writes,
	// so max more fit behind it.
	flusher, _ := holdFlusher(t, q, p, w)
	for i := 1; i <= max; i++ {
		f, _ := testFrame(t, p, 0, i)
		if err := q.Enqueue(f); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := testFrame(t, p, 0, max+1)
	blocked := make(chan error, 1)
	go func() { blocked <- q.Enqueue(f) }()
	select {
	case err := <-blocked:
		t.Fatalf("enqueue past the bound returned (%v) instead of blocking", err)
	case <-time.After(20 * time.Millisecond):
	}
	// One write completes; the flusher takes the full queue for its next
	// pass and the blocked producer gets in behind it.
	w.gate <- nil
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	close(w.gate)
	if err := <-flusher; err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if _, frames := q.Stats(); frames != max+2 {
		t.Fatalf("wrote %d frames, want %d", frames, max+2)
	}
	mustBalance(t, p)
}
