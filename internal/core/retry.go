package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// retryBackoffCap bounds the exponential retry backoff so a long
// retry budget still probes at a useful rate.
const retryBackoffCap = time.Second

// retriable reports whether an operation failed for a reason that may
// clear on its own: a timed-out call, an unreachable or down server, or too
// few servers reachable. Authoritative answers (found, not-found,
// corrupt) are never retriable.
func retriable(err error) bool {
	return errors.Is(err, ErrUnavailable) || rpc.IsUnavailable(err)
}

// result is one key's outcome of a strategy call: the fetched item for
// a read, the installed version (Item.Version) for a write, nothing for
// a delete. Strategy calls return one result per key, by position.
type result struct {
	item Item
	err  error
}

// pick returns the elements of all at positions idx.
func pick[T any](all []T, idx []int) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = all[i]
	}
	return out
}

// subset is pick for a retryKeys round, whose nil idx addresses every
// key (the first round, which then copies nothing).
func subset[T any](all []T, idx []int) []T {
	if idx == nil {
		return all
	}
	return pick(all, idx)
}

// retryKeys is the one retry loop of the data path. round runs the
// keys of a strategy call — all of them first (idx nil), then the
// positions idx still worth re-running — and returns one result per
// key it was given. A key is re-run when
//
//   - a server rejected it with a membership-epoch error
//     (wire.ErrWrongEpoch): the view is refreshed from the cluster
//     first, without backoff — the rejection was instant, not
//     congestion — and the round re-resolves placement against the new
//     ring. The server rejects BEFORE executing, so the rejected request
//     never landed; partially-landed multi-location writes are unwound
//     by the strategies like any other mid-write failure, and a delete
//     that landed elsewhere stands (errDeletedStale). Bounded by
//     epochRetryLimit, so under a flapping ring the key fails with the
//     epoch error instead of spinning;
//   - idempotent is set and the failure is transient (retriable): up to
//     Config.MaxRetries times, with exponential backoff and jitter. Only
//     reads pass idempotent: a Set must never be silently retried once
//     any chunk or replica write has been issued, because the first
//     attempt may have partially (or wholly) landed.
//
// The keys retried together share one counted retry and one sleep.
func (c *Client) retryKeys(idempotent bool, round func(idx []int) []result) []result {
	out := round(nil)
	n := len(out) // keys the latest round ran
	// Clamp the starting point too: a Config.RetryBackoff above the
	// cap would otherwise make the first sleep exceed it.
	backoff := min(c.cfg.RetryBackoff, retryBackoffCap)
	var last []int // their positions (nil: all)
	for epochTries, tries := 0, 0; ; {
		var redo []int
		stale := false
		for j := 0; j < n; j++ {
			i := j
			if last != nil {
				i = last[j]
			}
			switch err := out[i].err; {
			case err == nil:
			case errors.Is(err, wire.ErrWrongEpoch):
				if epochTries < epochRetryLimit {
					stale = true
					redo = append(redo, i)
				}
			case idempotent && tries < c.cfg.MaxRetries && retriable(err):
				redo = append(redo, i)
			}
		}
		if len(redo) == 0 {
			return out
		}
		if stale {
			epochTries++
			c.mEpochRetries.Inc()
			_, _ = c.RefreshView()
		} else {
			tries++
			c.mRetries.Inc()
			c.retrySleep(retryJitter(backoff))
			backoff = nextBackoff(backoff)
		}
		for j, r := range round(redo) {
			switch i := redo[j]; {
			case out[i].err != errDeletedStale:
			case errors.Is(r.err, ErrNotFound):
				r.err = nil
			case errors.Is(r.err, wire.ErrWrongEpoch):
				r.err = errDeletedStale
			}
			out[redo[j]] = r
		}
		last, n = redo, len(redo)
	}
}

// errDeletedStale is a delete round's epoch error for a key it removed
// somewhere: retryKeys reports the key deleted if the re-run at the new
// view finds it absent, the rejecting holder no longer placed.
var errDeletedStale = fmt.Errorf("%w after a deletion", wire.ErrWrongEpoch)

// nextBackoff doubles the backoff base, clamping AFTER the
// multiplication so no sleep's base ever exceeds retryBackoffCap.
// (Clamping before doubling — `if backoff < cap { backoff *= 2 }` —
// let a base just under the cap pass the check and then double,
// overshooting the cap by up to 2x before jitter.)
func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > retryBackoffCap {
		d = retryBackoffCap
	}
	return d
}

// retrySleep sleeps d, through the test hook when one is installed.
func (c *Client) retrySleep(d time.Duration) {
	if c.sleep != nil {
		c.sleep(d)
		return
	}
	time.Sleep(d)
}

// retryJitter spreads d over [d/2, 3d/2) so concurrent operations that
// failed together do not retry in lockstep against a recovering
// server.
func retryJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + rand.N(d)
}

// healthOrder puts distinct servers in failover order, in place: the
// servers the pool avoids (rpc.Pool.Avoided) moved to the back — each
// group in its original order — so failover loops try known-good
// candidates first while still reaching avoided ones as a last resort.
func healthOrder(servers, avoided []string) {
	if len(avoided) == 0 {
		return
	}
	h := 0
	for i, a := range servers {
		if !slices.Contains(avoided, a) {
			// The avoided servers in [h, i) move up one to make room.
			copy(servers[h+1:i+1], servers[h:i])
			servers[h] = a
			h++
		}
	}
}
