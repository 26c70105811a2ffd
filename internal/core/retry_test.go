package core

import (
	"testing"
	"time"

	"ecstore/internal/metrics"
)

// The cap is clamped AFTER doubling: iterating nextBackoff from any
// start must never produce a base above retryBackoffCap. Before the
// fix the clamp ran before the doubling, so a base just under the cap
// doubled past it and every later sleep overshot by up to 2x.
func TestNextBackoffNeverExceedsCap(t *testing.T) {
	for _, start := range []time.Duration{
		time.Millisecond,
		DefaultRetryBackoff,
		retryBackoffCap - time.Millisecond, // the pre-fix overshoot case
		retryBackoffCap,
	} {
		d := start
		for i := 0; i < 20; i++ {
			d = nextBackoff(d)
			if d > retryBackoffCap {
				t.Fatalf("start %v: base grew to %v, above cap %v", start, d, retryBackoffCap)
			}
		}
		if d != retryBackoffCap {
			t.Fatalf("start %v: backoff should converge to the cap, got %v", start, d)
		}
	}
}

// retryOne runs one key through retryKeys as an idempotent read would.
func retryOne(c *Client, op func() error) error {
	return c.retryKeys(true, func([]int) []result { return []result{{err: op()}} })[0].err
}

// End-to-end through retryKeys: every observed sleep must stay within
// jitter range of the cap — at most 3/2 * retryBackoffCap — no matter
// how many attempts run or how large the configured starting backoff
// is.
func TestRetryKeysMaxObservedBackoff(t *testing.T) {
	var sleeps []time.Duration
	c := &Client{
		cfg: Config{
			MaxRetries: 10,
			// Above the cap on purpose: the first sleep must be
			// clamped too.
			RetryBackoff: 3 * retryBackoffCap,
		},
		mRetries: metrics.NewRegistry().Counter("retries"),
		sleep:    func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	err := retryOne(c, func() error { return ErrUnavailable })
	if err != ErrUnavailable {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if len(sleeps) != c.cfg.MaxRetries {
		t.Fatalf("slept %d times, want %d", len(sleeps), c.cfg.MaxRetries)
	}
	maxSleep := retryBackoffCap * 3 / 2 // jitter spreads d over [d/2, 3d/2)
	for i, d := range sleeps {
		if d > maxSleep {
			t.Fatalf("sleep %d = %v exceeds jittered cap %v", i, d, maxSleep)
		}
	}
}

// Non-retriable errors return immediately without sleeping, and nil
// errors stop the loop.
func TestRetryKeysStopsOnAuthoritativeAnswer(t *testing.T) {
	var sleeps int
	c := &Client{
		cfg:      Config{MaxRetries: 5, RetryBackoff: time.Millisecond},
		mRetries: metrics.NewRegistry().Counter("retries"),
		sleep:    func(time.Duration) { sleeps++ },
	}
	if err := retryOne(c, func() error { return ErrNotFound }); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if sleeps != 0 {
		t.Fatalf("slept %d times on a non-retriable error", sleeps)
	}
	calls := 0
	if err := retryOne(c, func() error {
		calls++
		if calls < 3 {
			return ErrUnavailable
		}
		return nil
	}); err != nil {
		t.Fatalf("err = %v, want nil after recovery", err)
	}
	if calls != 3 || sleeps != 2 {
		t.Fatalf("calls=%d sleeps=%d, want 3 and 2", calls, sleeps)
	}
}
