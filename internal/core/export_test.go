package core

import "time"

// SetClock makes now c's clock for the holder ledger, so a test moves a
// skip window along instead of waiting it out.
func SetClock(c *Client, now func() time.Time) { c.now = now }
