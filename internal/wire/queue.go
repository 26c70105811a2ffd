package wire

import (
	"errors"
	"io"
	"net"
	"sync"

	"ecstore/internal/bufpool"
)

// ErrQueueClosed is returned by FrameQueue.Enqueue after Close, or
// after the underlying writer has failed.
var ErrQueueClosed = errors.New("wire: frame queue closed")

// coalesceLimit is the largest vector the batch writer will merge into
// its contiguous scratch buffer. Vectors up to this size are memcpy'd
// together so a batch of small frames goes out as one (or few) write
// vectors; larger vectors (big values) are passed through untouched —
// for those the copy would cost more than the extra iovec.
const coalesceLimit = 8 << 10

// FrameQueue serializes encoded frames onto a connection without a
// goroutine of its own: the enqueuer that finds no flush in progress
// becomes the flusher and writes until the queue is empty. Enqueuers
// that arrive meanwhile append and return; the flusher's next pass
// writes everything queued since its last one as one vectored write. A
// lone blocking caller pays no goroutine handoff to send a frame, while
// an ARPE-style window of concurrent operations still coalesces its
// frame writes into a handful of syscalls instead of one per frame.
// No encoding happens under the queue lock.
//
// Ownership: Enqueue owns the frame whatever it returns — the flusher
// releases a batch after writing (or abandoning) it, a refused frame is
// released before Enqueue returns; callers never release frames.
type FrameQueue struct {
	w    io.Writer
	pool *bufpool.Pool

	// onError, if non-nil, is invoked once with the first write error,
	// by the flusher after it has let go of the queue (so it may call
	// Close). Subsequent Enqueues fail with that error.
	onError func(error)

	mu       sync.Mutex
	changed  sync.Cond // a batch was taken, a flush ended, or the queue stopped
	queued   []Frame
	standby  []Frame // the flusher's drained batch, swapped back as next queued backing
	max      int
	flushing bool // some Enqueue call is draining the queue; queued is empty otherwise
	closed   bool
	err      error

	batches, frames uint64 // flush stats (guarded by mu)

	// Owned by the flusher: the iovec list of the batch being written,
	// its backing array kept from batch to batch, and the copy of its
	// header that net.Buffers.WriteTo consumes.
	iov, wv net.Buffers
}

// NewFrameQueue returns a queue writing frames onto w. maxQueued bounds
// the frames waiting behind a flush in progress (Enqueue blocks when
// full, providing backpressure); values < 1 default to 64. pool is the
// scratch-buffer source for write coalescing (nil disables coalescing).
func NewFrameQueue(w io.Writer, maxQueued int, pool *bufpool.Pool, onError func(error)) *FrameQueue {
	if maxQueued < 1 {
		maxQueued = 64
	}
	q := &FrameQueue{w: w, pool: pool, onError: onError, max: maxQueued}
	q.changed.L = &q.mu
	return q
}

// Enqueue queues a frame, blocking while the queue is full, and — when
// no other call is flushing — writes it and everything queued meanwhile
// before returning. Nil means the frame was written or handed to the
// call that is flushing; an error means the queue is closed or its
// writer failed (possibly on another call's frame: the connection is
// unusable either way).
func (q *FrameQueue) Enqueue(f Frame) error {
	q.mu.Lock()
	for !q.closed && q.err == nil && len(q.queued) >= q.max {
		q.changed.Wait()
	}
	if q.closed || q.err != nil {
		err := q.err
		q.mu.Unlock()
		f.Release()
		if err != nil {
			return err
		}
		return ErrQueueClosed
	}
	q.queued = append(q.queued, f)
	if q.flushing {
		q.mu.Unlock()
		return nil
	}
	q.flushing = true
	err := q.flushLocked()
	q.flushing = false
	q.changed.Broadcast()
	q.mu.Unlock()
	if err != nil && q.onError != nil {
		q.onError(err)
	}
	return err
}

// flushLocked writes batches until the queue is empty or a write fails.
// Called with q.mu held by the call that owns q.flushing; the lock is
// dropped around each write so Enqueue can refill behind it.
func (q *FrameQueue) flushLocked() error {
	for len(q.queued) > 0 {
		batch := q.queued
		q.queued = q.standby[:0]
		q.standby = batch
		q.changed.Broadcast()
		q.mu.Unlock()

		err := q.writeBatch(batch)
		for i := range batch {
			batch[i].Release()
		}

		q.mu.Lock()
		if err != nil {
			q.err = err
			// Release anything that slipped in behind the failed batch.
			for i := range q.queued {
				q.queued[i].Release()
			}
			q.queued = q.queued[:0]
			return err
		}
		q.batches++
		q.frames += uint64(len(batch))
	}
	return nil
}

// Close fails later Enqueues and returns once any flush in progress has
// drained the frames already queued. Safe to call more than once, but
// not from inside the queue's writer.
func (q *FrameQueue) Close() error {
	q.mu.Lock()
	q.closed = true
	q.changed.Broadcast()
	for q.flushing {
		q.changed.Wait()
	}
	q.mu.Unlock()
	return nil
}

// Stats returns the number of batch flushes and frames written so far;
// frames/batches is the achieved coalescing factor.
func (q *FrameQueue) Stats() (batches, frames uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.batches, q.frames
}

// writeBatch writes every frame in batch as a single vectored write,
// coalescing runs of small vectors into a pooled scratch buffer. The
// scratch is sized in a first pass before any bytes are copied, so
// appends can never reallocate it and invalidate aliases already in
// the iovec list. A lone small vector (one inline frame, the blocking
// small-message case) has nothing to coalesce with and goes as it is.
func (q *FrameQueue) writeBatch(batch []Frame) error {
	// Pass 1: count and total bytes of coalescable (small) vectors.
	small, nsmall := 0, 0
	for i := range batch {
		h, v := batch[i].Vectors()
		if len(h) <= coalesceLimit {
			small += len(h)
			nsmall++
		}
		if n := len(v); n > 0 && n <= coalesceLimit {
			small += n
			nsmall++
		}
	}
	var scratch []byte
	if nsmall > 1 && q.pool != nil {
		scratch = q.pool.GetRaw(small)[:0]
	}

	// Pass 2: build the iovec list. Consecutive small vectors are
	// appended to scratch; each run becomes one vector aliasing the
	// scratch region it occupies. scratch never grows past its leased
	// capacity, so earlier aliases stay valid.
	iov := q.iov[:0]
	runStart := 0
	flushRun := func() {
		if len(scratch) > runStart {
			iov = append(iov, scratch[runStart:len(scratch):len(scratch)])
			runStart = len(scratch)
		}
	}
	addVec := func(b []byte) {
		if len(b) == 0 {
			return
		}
		if scratch != nil && len(b) <= coalesceLimit {
			scratch = append(scratch, b...)
			return
		}
		flushRun()
		iov = append(iov, b)
	}
	for i := range batch {
		h, v := batch[i].Vectors()
		addVec(h)
		addVec(v)
	}
	flushRun()
	q.iov = iov

	var err error
	if len(iov) == 1 {
		_, err = q.w.Write(iov[0])
	} else {
		q.wv = iov
		_, err = q.wv.WriteTo(q.w)
		q.wv = nil
	}
	// Drop the references so the kept array pins no released buffer.
	clear(q.iov)
	if scratch != nil {
		q.pool.Put(scratch)
	}
	return err
}
