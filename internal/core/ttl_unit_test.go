package core

import (
	"math"
	"testing"
	"time"

	"ecstore/internal/wire"
)

// The TTL the client puts on the wire must round up (0 on the wire means
// "no expiry", so any positive sub-second TTL has to become at least 1)
// and clamp at 32 bits of seconds instead of wrapping.
func TestTTLSeconds(t *testing.T) {
	for _, tc := range []struct {
		ttl  time.Duration
		want uint32
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Nanosecond, 1},
		{50 * time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{time.Second + time.Millisecond, 2},
		{2 * time.Second, 2},
		{time.Hour, 3600},
		{math.MaxUint32 * time.Second, math.MaxUint32},
		{1 << 32 * time.Second, math.MaxUint32},
		{math.MaxInt64, math.MaxUint32},
	} {
		if got := wire.TTLSeconds(tc.ttl); got != tc.want {
			t.Errorf("wire.TTLSeconds(%v) = %d, want %d", tc.ttl, got, tc.want)
		}
	}
}
