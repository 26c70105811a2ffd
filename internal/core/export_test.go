package core

import (
	"sync/atomic"
	"time"

	"ecstore/internal/membership"
)

// SetClock makes now c's clock for the holder ledger, so a test moves a
// skip window along instead of waiting it out.
func SetClock(c *Client, now func() time.Time) { c.now = now }

// AdoptView offers c a view out of band, as a server's ring push would;
// only a strictly newer epoch is installed.
func (c *Client) AdoptView(v membership.View) bool { return c.view.Adopt(v) }

// CountBatchers makes c count the batchers its pool constructs, and
// returns the count so far: operations beyond it drew a recycled one.
// Call it before c's first operation.
func CountBatchers(c *Client) func() int64 {
	var n atomic.Int64
	c.batchers.New = func() any {
		n.Add(1)
		return c.newBatcher()
	}
	return n.Load
}
