package core

// Item is a fetched value with its metadata: the version is the CAS
// token `gets` exposes and Cas checks (0 for a legacy unversioned
// write), TTL the remaining lifetime in whole seconds (0 = no expiry).
type Item struct {
	// Value is read-only and may be shared: a read returns the near
	// cache's entry and the bytes every coalesced reader of the key
	// received, not a copy of its own. A caller that wants to modify it
	// copies it first.
	Value   []byte
	Version uint64
	TTL     uint32
}

// Future is the completion handle returned by the non-blocking APIs,
// the analogue of the request token consumed by memcached_wait and
// memcached_test in the RDMA-Libmemcached design.
type Future struct {
	done chan struct{}
	item Item
	err  error
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

// Wait blocks until the operation completes and returns its value
// (non-nil only for Get operations) and error — the memcached_wait
// analogue.
func (f *Future) Wait() ([]byte, error) {
	<-f.done
	return f.item.Value, f.err
}

// Test reports without blocking whether the operation has completed —
// the memcached_test analogue.
func (f *Future) Test() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Done returns a channel closed on completion, for select loops.
func (f *Future) Done() <-chan struct{} { return f.done }

func (f *Future) complete(item Item, err error) {
	f.item, f.err = item, err
	close(f.done)
}

// WaitAll waits for every future and returns the first error
// encountered (all futures are waited regardless).
func WaitAll(futures ...*Future) error {
	var first error
	for _, f := range futures {
		if f == nil {
			continue
		}
		if _, err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
