package lustre

import (
	"time"

	"ecstore/repro/internal/simnet"
)

// SimProfile parameterizes the virtual-time Lustre model: aggregate
// OSS bandwidths plus a per-RPC latency. TestDFSIO over Lustre-direct
// in the paper shows reads trailing writes (non-local, small-request
// reads through the Hadoop adapter), which is why the defaults have
// asymmetric bandwidths.
type SimProfile struct {
	// Name labels the deployment.
	Name string
	// WriteBytesPerSec and ReadBytesPerSec are aggregate bandwidths
	// across all OSS nodes.
	WriteBytesPerSec float64
	ReadBytesPerSec  float64
	// RPCLatency is the per-operation round-trip to the OSS.
	RPCLatency time.Duration
}

// DefaultSimProfile models the RI-QDR cluster's small Lustre
// deployment (a 1 TB setup on a handful of storage nodes, shared by
// every compute node). Reads through the Hadoop adapter trail writes —
// non-local, smaller requests — which is what makes the paper's
// TestDFSIO read gap (5.9x) larger than its write gap (2.6x).
var DefaultSimProfile = SimProfile{
	Name:             "lustre-ri-qdr",
	WriteBytesPerSec: 1.3e9,
	ReadBytesPerSec:  0.6e9,
	RPCLatency:       2 * time.Millisecond,
}

// SimPFS is the virtual-time parallel filesystem: all clients share
// the aggregate read and write pipes, which is what makes direct PFS
// I/O the bottleneck the burst buffer removes.
type SimPFS struct {
	prof    SimProfile
	writeTL *simnet.Timeline
	readTL  *simnet.Timeline
	kernel  *simnet.Kernel

	written int64
	read    int64
}

// NewSimPFS returns a simulated PFS on k.
func NewSimPFS(k *simnet.Kernel, prof SimProfile) *SimPFS {
	return &SimPFS{
		prof:    prof,
		writeTL: simnet.NewTimeline(k),
		readTL:  simnet.NewTimeline(k),
		kernel:  k,
	}
}

// Write blocks p until size bytes are durable on the PFS.
func (s *SimPFS) Write(p *simnet.Proc, size int) {
	s.written += int64(size)
	d := time.Duration(float64(size) / s.prof.WriteBytesPerSec * float64(time.Second))
	_, end := s.writeTL.Reserve(d)
	p.Sleep(end + s.prof.RPCLatency - p.Now())
}

// Read blocks p until size bytes have been fetched from the PFS.
func (s *SimPFS) Read(p *simnet.Proc, size int) {
	s.read += int64(size)
	d := time.Duration(float64(size) / s.prof.ReadBytesPerSec * float64(time.Second))
	_, end := s.readTL.Reserve(d)
	p.Sleep(end + s.prof.RPCLatency - p.Now())
}

// BytesWritten returns the total bytes written.
func (s *SimPFS) BytesWritten() int64 { return s.written }

// BytesRead returns the total bytes read.
func (s *SimPFS) BytesRead() int64 { return s.read }
