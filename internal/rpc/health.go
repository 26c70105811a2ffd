package rpc

import (
	"math/rand/v2"
	"sync"
	"time"
)

// The health tracker's policy. The thresholds are deliberately small: the
// cost of a false suspect is one probe round trip, while the cost of a
// missed failure is a full call deadline per request.
const (
	// DefaultFailureThreshold is how many consecutive failures move a
	// server from healthy to suspect.
	DefaultFailureThreshold = 3
	// DefaultProbeBase is the delay before the first recovery probe of
	// a suspect server.
	DefaultProbeBase = 20 * time.Millisecond
	// DefaultProbeMax caps the probe backoff so recovery of a
	// long-dead server is still noticed within ~a second of traffic.
	DefaultProbeMax = time.Second
)

// HealthState is the tracker's view of one server.
type HealthState uint8

const (
	// StateHealthy lets requests flow normally.
	StateHealthy HealthState = iota
	// StateSuspect fails requests fast; only probes go through.
	StateSuspect
)

// String returns the state mnemonic.
func (s HealthState) String() string {
	if s == StateSuspect {
		return "suspect"
	}
	return "healthy"
}

// health is the per-server failure tracker: a consecutive-failure
// counter that opens a circuit (suspect) at a threshold, and a
// probe-on-next-use schedule with exponential backoff + jitter that
// closes it again when the server answers.
type health struct {
	mu        sync.Mutex
	state     HealthState
	fails     int
	probeWait time.Duration // next backoff step
	nextProbe time.Time
	// okStart is when the latest successful call started. A call that
	// started before it and fails afterwards (a timeout of a request sent
	// before the server recovered) says nothing the success has not
	// overruled, and is not counted.
	okStart time.Time
}

// snapshot returns the current state.
func (h *health) snapshot() HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// admit reports whether a request may proceed. For a suspect server it
// grants at most one request per probe window — the probe — and pushes
// the next window out with doubled, jittered backoff so a long-dead
// server costs ever less to keep checking.
func (h *health) admit(now time.Time, base, max time.Duration) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == StateHealthy {
		return true
	}
	if now.Before(h.nextProbe) {
		return false
	}
	if h.probeWait <= 0 {
		h.probeWait = base
	}
	h.nextProbe = now.Add(jitter(h.probeWait))
	if h.probeWait < max {
		h.probeWait *= 2
		if h.probeWait > max {
			h.probeWait = max
		}
	}
	return true
}

// observe records the outcome of one call that started at start and
// reports state transitions: toSuspect when the server just crossed the
// failure threshold (the caller then drops its cached connection so the
// next probe redials), recovered when a probe of a suspect server
// succeeded and the circuit closed again. A failure of a call that
// started before the latest success is ignored.
func (h *health) observe(start time.Time, err error, threshold int, base time.Duration) (toSuspect, recovered bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil {
		recovered = h.state == StateSuspect
		h.state = StateHealthy
		h.fails = 0
		h.probeWait = 0
		if start.After(h.okStart) {
			h.okStart = start
		}
		return false, recovered
	}
	if start.Before(h.okStart) {
		return false, false
	}
	h.fails++
	if h.state == StateHealthy && h.fails >= threshold {
		h.state = StateSuspect
		h.probeWait = base
		h.nextProbe = time.Now().Add(jitter(base))
		return true, false
	}
	return false, false
}

// jitter spreads d over [d/2, 3d/2) so probes from many clients (or
// retries from many goroutines) do not synchronize into thundering
// herds against a recovering server.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + rand.N(d)
}
