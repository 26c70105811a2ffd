// Package boldio implements the Boldio burst-buffer system of
// Section V: Hadoop-style I/O streams are mapped onto key-value pairs
// cached in the resilient in-memory store, and asynchronously
// persisted to a parallel filesystem (Lustre). The resilience of the
// KV layer — client-initiated replication in the original Boldio,
// online erasure coding in this paper — is whatever the underlying
// core.Client is configured with.
//
// The package contains both the runnable burst buffer (BurstBuffer,
// over core.Client and lustre.FS) and the virtual-time TestDFSIO
// experiment driver behind Figure 13 (RunTestDFSIO).
package boldio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"ecstore/internal/core"
	"ecstore/repro/internal/lustre"
)

// DefaultChunkSize matches the paper's burst-buffer pair sizes
// (512 KB - 1 MB key-value pairs).
const DefaultChunkSize = 1 << 20

// DefaultPersisters is the default number of background persistence
// workers.
const DefaultPersisters = 2

// ErrClosed is returned after Close.
var ErrClosed = errors.New("boldio: closed")

// Config configures a BurstBuffer.
type Config struct {
	// Client is the resilient KV client caching the I/O stream.
	Client *core.Client
	// FS is the backing parallel filesystem. Nil disables
	// persistence (pure in-memory burst buffer).
	FS lustre.FS
	// ChunkSize is the KV pair size files are split into
	// (DefaultChunkSize if zero).
	ChunkSize int
	// Persisters is the number of background flush workers
	// (DefaultPersisters if zero).
	Persisters int
	// Window bounds in-flight chunk operations per file stream
	// (8 if zero).
	Window int
}

// manifest records how a file was chunked; it is stored both as a KV
// pair and on the PFS so reads survive a cold cache.
type manifest struct {
	Size      int64 `json:"size"`
	ChunkSize int   `json:"chunkSize"`
}

type persistJob struct {
	file   string
	offset int64
	data   []byte
}

// BurstBuffer is the Boldio client: it stages file streams in the KV
// store and persists them to the PFS in the background.
type BurstBuffer struct {
	cfg Config

	jobs chan persistJob
	wg   sync.WaitGroup // persister goroutines
	work sync.WaitGroup // outstanding persist jobs

	mu      sync.Mutex
	persErr error
	closed  bool
}

// New returns a started BurstBuffer.
func New(cfg Config) (*BurstBuffer, error) {
	if cfg.Client == nil {
		return nil, errors.New("boldio: Config.Client is required")
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.Persisters <= 0 {
		cfg.Persisters = DefaultPersisters
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	b := &BurstBuffer{
		cfg: cfg,
		// The queue length bounds persistence backlog memory; beyond
		// it, writers feel backpressure from the PFS.
		jobs: make(chan persistJob, cfg.Persisters*4),
	}
	if cfg.FS != nil {
		for i := 0; i < cfg.Persisters; i++ {
			b.wg.Add(1)
			go b.persister()
		}
	}
	return b, nil
}

func (b *BurstBuffer) persister() {
	defer b.wg.Done()
	for job := range b.jobs {
		if err := b.cfg.FS.WriteChunk(job.file, job.offset, job.data); err != nil {
			b.mu.Lock()
			if b.persErr == nil {
				b.persErr = fmt.Errorf("boldio: persist %s@%d: %w", job.file, job.offset, err)
			}
			b.mu.Unlock()
		}
		b.work.Done()
	}
}

func chunkKeyOf(file string, idx int64) string {
	return fmt.Sprintf("bb:%s:%d", file, idx)
}

func manifestKeyOf(file string) string {
	return "bbm:" + file
}

func manifestFileOf(file string) string {
	return file + ".bbmanifest"
}

// WriteFile streams r into the burst buffer under name, returning the
// byte count. Chunk writes are pipelined through the non-blocking KV
// API; persistence to the PFS proceeds asynchronously (call Flush to
// wait for durability).
func (b *BurstBuffer) WriteFile(name string, r io.Reader) (int64, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, ErrClosed
	}
	b.mu.Unlock()

	type pending struct {
		f   *core.Future
		idx int64
	}
	var (
		total  int64
		idx    int64
		window []pending
	)
	drainOne := func() error {
		p := window[0]
		window = window[1:]
		if _, err := p.f.Wait(); err != nil {
			return fmt.Errorf("boldio: write chunk %d of %s: %w", p.idx, name, err)
		}
		return nil
	}
	buf := make([]byte, b.cfg.ChunkSize)
	for {
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			chunk := make([]byte, n)
			copy(chunk, buf[:n])
			f := b.cfg.Client.ISet(chunkKeyOf(name, idx), chunk)
			window = append(window, pending{f: f, idx: idx})
			if b.cfg.FS != nil {
				b.work.Add(1)
				b.jobs <- persistJob{file: name, offset: int64(idx) * int64(b.cfg.ChunkSize), data: chunk}
			}
			total += int64(n)
			idx++
			if len(window) >= b.cfg.Window {
				if derr := drainOne(); derr != nil {
					return total, derr
				}
			}
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			break
		}
		if err != nil {
			return total, fmt.Errorf("boldio: read stream: %w", err)
		}
	}
	for len(window) > 0 {
		if err := drainOne(); err != nil {
			return total, err
		}
	}

	m, err := json.Marshal(manifest{Size: total, ChunkSize: b.cfg.ChunkSize})
	if err != nil {
		return total, err
	}
	if err := b.cfg.Client.Set(manifestKeyOf(name), m); err != nil {
		return total, fmt.Errorf("boldio: manifest: %w", err)
	}
	if b.cfg.FS != nil {
		if err := b.cfg.FS.WriteChunk(manifestFileOf(name), 0, m); err != nil {
			return total, fmt.Errorf("boldio: manifest persist: %w", err)
		}
	}
	return total, nil
}

// loadManifest fetches the manifest from the cache, falling back to
// the PFS copy.
func (b *BurstBuffer) loadManifest(name string) (manifest, error) {
	var m manifest
	data, err := b.cfg.Client.Get(manifestKeyOf(name))
	if err != nil && b.cfg.FS != nil {
		buf := make([]byte, 512)
		n, ferr := b.cfg.FS.ReadChunk(manifestFileOf(name), 0, buf)
		if ferr != nil {
			return m, fmt.Errorf("boldio: manifest for %s: %w", name, err)
		}
		data = buf[:n]
		err = nil
	}
	if err != nil {
		return m, fmt.Errorf("boldio: manifest for %s: %w", name, err)
	}
	if jerr := json.Unmarshal(data, &m); jerr != nil {
		return m, fmt.Errorf("boldio: manifest for %s: %w", name, jerr)
	}
	if m.ChunkSize <= 0 || m.Size < 0 {
		return m, fmt.Errorf("boldio: manifest for %s is invalid", name)
	}
	return m, nil
}

// ReadFile streams the named file into w, serving chunks from the KV
// cache and transparently falling back to the PFS for chunks the
// volatile cache has lost.
func (b *BurstBuffer) ReadFile(name string, w io.Writer) (int64, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, ErrClosed
	}
	b.mu.Unlock()

	m, err := b.loadManifest(name)
	if err != nil {
		return 0, err
	}
	chunks := (m.Size + int64(m.ChunkSize) - 1) / int64(m.ChunkSize)
	futures := make([]*core.Future, 0, b.cfg.Window)
	base := int64(0) // chunk index of futures[0]
	var written int64

	issue := func(idx int64) *core.Future {
		return b.cfg.Client.IGet(chunkKeyOf(name, idx))
	}
	for idx := int64(0); idx < chunks && int64(len(futures)) < int64(b.cfg.Window); idx++ {
		futures = append(futures, issue(idx))
	}
	for i := int64(0); i < chunks; i++ {
		f := futures[0]
		futures = futures[1:]
		if next := base + int64(b.cfg.Window); next < chunks {
			futures = append(futures, issue(next))
		}
		base++

		want := int(min64(int64(m.ChunkSize), m.Size-i*int64(m.ChunkSize)))
		data, err := f.Wait()
		if err != nil {
			// Cache miss or too many failures: recover from the PFS.
			if b.cfg.FS == nil {
				return written, fmt.Errorf("boldio: chunk %d of %s: %w", i, name, err)
			}
			buf := make([]byte, want)
			n, ferr := b.cfg.FS.ReadChunk(name, i*int64(m.ChunkSize), buf)
			if ferr != nil || n != want {
				return written, fmt.Errorf("boldio: chunk %d of %s: cache: %v; pfs: %v", i, name, err, ferr)
			}
			data = buf
		}
		if len(data) != want {
			return written, fmt.Errorf("boldio: chunk %d of %s: %d bytes, want %d", i, name, len(data), want)
		}
		n, werr := w.Write(data)
		written += int64(n)
		if werr != nil {
			return written, werr
		}
	}
	return written, nil
}

// DeleteFile removes a file from the burst buffer: its chunks and
// manifest leave the KV cache, and, when removePersisted is set, the
// PFS copy and persisted manifest are deleted too.
func (b *BurstBuffer) DeleteFile(name string, removePersisted bool) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.mu.Unlock()

	m, err := b.loadManifest(name)
	if err != nil {
		return err
	}
	chunks := (m.Size + int64(m.ChunkSize) - 1) / int64(m.ChunkSize)
	keys := make([]string, 0, chunks+1)
	for i := int64(0); i < chunks; i++ {
		keys = append(keys, chunkKeyOf(name, i))
	}
	keys = append(keys, manifestKeyOf(name))
	if err := b.cfg.Client.MDelete(keys); err != nil && !errors.Is(err, core.ErrNotFound) {
		// Chunks already evicted or previously removed are fine;
		// only infrastructure failures abort the delete.
		return fmt.Errorf("boldio: delete %s from cache: %w", name, err)
	}
	if removePersisted && b.cfg.FS != nil {
		if err := b.cfg.FS.Remove(name); err != nil {
			return fmt.Errorf("boldio: delete %s from pfs: %w", name, err)
		}
		if err := b.cfg.FS.Remove(manifestFileOf(name)); err != nil {
			return fmt.Errorf("boldio: delete %s manifest from pfs: %w", name, err)
		}
	}
	return nil
}

// Flush blocks until every queued chunk is durable on the PFS and
// returns the first persistence error, if any.
func (b *BurstBuffer) Flush() error {
	b.work.Wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.persErr
}

// Close flushes and stops the persistence workers. The KV client and
// FS are owned by the caller and stay open.
func (b *BurstBuffer) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	err := b.Flush()
	close(b.jobs)
	b.wg.Wait()
	return err
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
