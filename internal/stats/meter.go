package stats

import "sync/atomic"

// Meter counts successful and failed operations. The zero value is
// ready to use and safe for concurrent use.
type Meter struct {
	ops  atomic.Uint64
	errs atomic.Uint64
}

// Op records one successful operation.
func (m *Meter) Op() { m.ops.Add(1) }

// Err records one failed operation.
func (m *Meter) Err() { m.errs.Add(1) }

// Ops returns the number of successful operations.
func (m *Meter) Ops() uint64 { return m.ops.Load() }

// Errs returns the number of failed operations.
func (m *Meter) Errs() uint64 { return m.errs.Load() }
