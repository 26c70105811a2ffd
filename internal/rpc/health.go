package rpc

import (
	"math/rand/v2"
	"time"
)

// The health policy. The thresholds are deliberately small: the cost of
// a false alarm is one probe round trip, or one read asking a parity
// chunk it did not need, while the cost of a missed failure is a full
// call deadline per request.
const (
	// DefaultFailureThreshold is how many consecutive failed calls make a
	// server down, and how many chunk misses in a row make reads avoid it.
	DefaultFailureThreshold = 3
	// DefaultProbeBase is the delay before the first recovery probe of
	// a down server.
	DefaultProbeBase = 20 * time.Millisecond
	// DefaultProbeMax caps the probe backoff so recovery of a
	// long-dead server is still noticed within ~a second of traffic,
	// and is how long reads avoid a server whose chunks keep missing.
	DefaultProbeMax = time.Second
)

// policy is a pool's health policy: the Default* values, which only this
// package's tests change.
type policy struct {
	threshold           int
	probeBase, probeMax time.Duration
}

// record is what a pool knows of one server, in two runs that each make
// the server avoided.
//
// The run of failed calls: at the threshold the server is down, and
// every call to it fails fast except one probe per backoff window (base
// doubling to max, jittered). A down server is avoided until an answered
// call — its probe — ends the run and brings it back: a caller that asks
// it last or not at all never spends a deadline on a hung server, and
// the calls that still reach it (writes to every holder, a read's later
// rounds, a walk's last resort) carry the probes.
//
// The run of chunk misses, reported by the reads that decoded without
// the server's chunk (Pool.ObserveChunks): at the threshold reads ask
// around the server for max; the first read after that asks it again,
// as its probe, and one hit forgets the run. An answered call leaves
// this run alone, so a server restarted empty, which answers every call
// and misses every chunk, still builds one.
//
// A record is guarded by its pool's mutex; its methods take the time as
// an argument.
type record struct {
	fails     int
	down      bool
	probeWait time.Duration // next backoff step
	nextProbe time.Time
	// okStart is when the latest successful call started. A call that
	// started before it and fails afterwards (a timeout of a request sent
	// before the server recovered) says nothing the success has not
	// overruled, and is not counted.
	okStart time.Time

	misses    int
	missUntil time.Time
}

// flagged reports whether r counts among its pool's avoided servers:
// down, or at its miss threshold. Whether it is avoided now depends on
// the time too (avoided).
func (r *record) flagged(pol policy) bool { return r.down || r.misses >= pol.threshold }

// avoided is the one predicate reads and failover walks order servers
// by: down, or inside its miss window.
func (r *record) avoided(now time.Time, pol policy) bool {
	return r.down || r.misses >= pol.threshold && now.Before(r.missUntil)
}

// admit reports whether a call may proceed. For a down server it grants
// at most one call per probe window — the probe — and pushes the next
// window out with doubled, jittered backoff so a long-dead server costs
// ever less to keep checking.
func (r *record) admit(now time.Time, pol policy) bool {
	if !r.down {
		return true
	}
	if now.Before(r.nextProbe) {
		return false
	}
	if r.probeWait <= 0 {
		r.probeWait = pol.probeBase
	}
	r.nextProbe = now.Add(jitter(r.probeWait))
	if r.probeWait < pol.probeMax {
		r.probeWait = min(2*r.probeWait, pol.probeMax)
	}
	return true
}

// observe records at now the outcome of one call that started at start
// and reports the transitions: toDown when the server just reached the
// failure threshold (the caller then drops its cached connection so the
// next probe redials), recovered when a probe of a down server succeeded.
// A failure of a call that started before the latest success is ignored.
func (r *record) observe(now, start time.Time, err error, pol policy) (toDown, recovered bool) {
	if err == nil {
		recovered = r.down
		r.down, r.fails, r.probeWait = false, 0, 0
		if start.After(r.okStart) {
			r.okStart = start
		}
		return false, recovered
	}
	if start.Before(r.okStart) {
		return false, false
	}
	r.fails++
	if !r.down && r.fails >= pol.threshold {
		r.down, r.probeWait = true, pol.probeBase
		r.nextProbe = now.Add(jitter(pol.probeBase))
		return true, false
	}
	return false, false
}

// miss records at now a read that decoded without the server's chunk: at
// the threshold, and at every miss after it, reads avoid the server for
// max.
func (r *record) miss(now time.Time, pol policy) {
	if r.misses++; r.misses >= pol.threshold {
		r.missUntil = now.Add(pol.probeMax)
	}
}

// hit records a read that got the server's chunk: the miss run is over.
func (r *record) hit() { r.misses, r.missUntil = 0, time.Time{} }

// jitter spreads d over [d/2, 3d/2) so probes from many clients (or
// retries from many goroutines) do not synchronize into thundering
// herds against a recovering server.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + rand.N(d)
}
