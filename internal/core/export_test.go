package core

import (
	"time"

	"ecstore/internal/membership"
)

// SetClock makes now c's clock for the holder ledger, so a test moves a
// skip window along instead of waiting it out.
func SetClock(c *Client, now func() time.Time) { c.now = now }

// AdoptView offers c a view out of band, as a server's ring push would;
// only a strictly newer epoch is installed.
func (c *Client) AdoptView(v membership.View) bool { return c.view.Adopt(v) }
