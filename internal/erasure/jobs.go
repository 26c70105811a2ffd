package erasure

import "ecstore/internal/gf256"

// Matrix-based encode/decode is a set of independent GF(2^8) dot
// products out = Σ coeff·src, executed as codeJob batches on the calling
// goroutine. Every byte column is independent, so the shards are walked
// in cache-sized segments: all jobs run over one segment before any
// touches the next, and the k source segments are read from cache by
// every job after the first. There is no thread fan-out — with the
// vector kernels a 1 MB encode is tens of microseconds, less than waking
// a helper goroutine and waiting for it buys back (DESIGN §5a).

// parallelSegment is the segment width in bytes: small enough that a
// segment's working set (k source reads + 1 destination write) sits in
// L2, large enough that the per-call cost of the kernels disappears.
const parallelSegment = 32 << 10

// codeJob is one output shard of a matrix product over the batch's
// sources: out = Σ coeffs[i]·srcs[i], len(coeffs) == len(srcs) >= 1.
//
// Every job of a batch reads the same sources, so they are an argument
// of the batch rather than a field of the job: a job that pointed at a
// caller's stack array of sources would move that array to the heap,
// because escape analysis files whatever is appended to a slice as
// escaping.
type codeJob struct {
	out    []byte
	coeffs []byte
}

// runSegment computes every job restricted to the byte range [lo, hi).
// The first source row overwrites (MulSlice), so out needs no
// pre-zeroing — raw pool buffers are fine.
func runSegment(jobs []codeJob, srcs [][]byte, lo, hi int) {
	for _, j := range jobs {
		out := j.out[lo:hi]
		gf256.MulSlice(j.coeffs[0], srcs[0][lo:hi], out)
		for c := 1; c < len(j.coeffs); c++ {
			gf256.MulAddSlice(j.coeffs[c], srcs[c][lo:hi], out)
		}
	}
}

// runBlocked executes the jobs over sources of the given size, one
// segment at a time. All slices share one length.
func runBlocked(jobs []codeJob, srcs [][]byte, size int) {
	for lo := 0; lo < size; lo += parallelSegment {
		runSegment(jobs, srcs, lo, min(lo+parallelSegment, size))
	}
}

// Option configures a code's buffer pooling, for codes that support it
// (currently RSVan).
type Option func(*codecOpts)

type codecOpts struct {
	pool *BufferPool
}

// WithPool sets the buffer pool used for parity and reconstruction
// buffers. Passing nil disables pooling (plain allocation).
func WithPool(p *BufferPool) Option {
	return func(o *codecOpts) { o.pool = p }
}

// alloc draws a possibly-dirty buffer from the configured pool, or
// allocates when pooling is disabled. Callers overwrite every byte.
func (o codecOpts) alloc(n int) []byte {
	if o.pool == nil {
		return make([]byte, n)
	}
	return o.pool.GetRaw(n)
}

// release hands a buffer back to the configured pool (no-op when
// pooling is disabled).
func (o codecOpts) release(b []byte) {
	if o.pool != nil {
		o.pool.Put(b)
	}
}
