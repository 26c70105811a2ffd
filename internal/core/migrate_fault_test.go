package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ecstore/internal/core"
)

// TestMigrationLeakUnderServerKill is the netem leak sweep for the
// migration path (ISSUE 9 satellite): a server dies in the middle of a
// keyspace migration sweep, so refills, drains and chunk probes fail at
// every stage — and every pooled frame leased along those error paths
// must still flow back (gets == puts on the shared frame pool). After
// the server returns (empty, rolling-restart style) a retry sweep plus
// the anti-entropy pass must restore every key.
func TestMigrationLeakUnderServerKill(t *testing.T) {
	for name, cfg := range migrationModes() {
		t.Run(name, func(t *testing.T) {
			baseline := poolDelta()
			cl, _ := startNetemCluster(t, 6)
			cfg.OpTimeout = 250 * time.Millisecond
			c := newClient(t, cl, cfg)

			values := map[string][]byte{}
			var keys []string
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("%s-leak-%03d", name, i)
				value := bytes.Repeat([]byte{byte('a' + i%26)}, 8192)
				if err := c.Set(key, value); err != nil {
					t.Fatal(err)
				}
				values[key] = value
				keys = append(keys, key)
			}

			if _, err := cl.AddServer("kv-joiner"); err != nil {
				t.Fatal(err)
			}
			if _, err := c.RingAdd("kv-joiner"); err != nil {
				t.Fatal(err)
			}

			// Sweep the keyspace with repairs — the view drains the old
			// ring, so each one moves its key; halfway through, a founding
			// server dies.
			// Per-key errors are expected (holders unreachable, stripes
			// unreconstructable) — the invariant under test is that no
			// error path strands a pooled buffer.
			failed := map[string]bool{}
			for i, key := range keys {
				if i == len(keys)/2 {
					cl.Kill(2)
				}
				if _, err := c.Repair(key); err != nil {
					failed[key] = true
				}
			}
			if len(failed) == 0 {
				t.Log("no migration hit the dead server; leak sweep still valid")
			}
			waitPoolBaseline(t, baseline)

			// Rolling restart: the server returns empty at the current
			// epoch; the retry sweep and the anti-entropy pass converge
			// everything the crash degraded. The health tracker fast-fails
			// the revived server until a probe readmits it, so each key
			// retries briefly instead of trusting the first attempt.
			if err := cl.RestartWithView(2, c.View()); err != nil {
				t.Fatal(err)
			}
			revived := cl.Addrs()[2]
			admitDeadline := time.Now().Add(5 * time.Second)
			for {
				ok := false
				for _, st := range c.RingStatus() {
					if st.Addr == revived && st.Err == nil {
						ok = true
					}
				}
				if ok {
					break
				}
				if time.Now().After(admitDeadline) {
					t.Fatal("restarted server never readmitted by the health tracker")
				}
				time.Sleep(10 * time.Millisecond)
			}
			for _, key := range keys {
				deadline := time.Now().Add(5 * time.Second)
				for {
					if _, err := c.Repair(key); err == nil {
						break
					} else if time.Now().After(deadline) {
						t.Errorf("retry migrate %q: %v", key, err)
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
				if _, err := c.Repair(key); err != nil {
					t.Errorf("repair %q: %v", key, err)
				}
			}
			for key, want := range values {
				got, err := c.Get(key)
				if err != nil {
					t.Errorf("get %q after recovery: %v", key, err)
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("get %q: value corrupted across kill + migration", key)
				}
			}
			waitPoolBaseline(t, baseline)
		})
	}
}

// goroutineBaseline returns the goroutine count once it has stopped
// moving, and awaitGoroutines polls until it is back at or below want —
// the baseline discipline of internal/cluster's goroutines_test.go, for
// a test that owns everything it started.
func goroutineBaseline() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 20 {
		time.Sleep(time.Millisecond)
		if now := runtime.NumGoroutine(); now == n {
			same++
		} else {
			n, same = now, 0
		}
	}
	return n
}

func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConvergenceHoldsNoLeaseAcrossFaults is the sweep for what the
// batched convergence path holds that the per-RPC one copied: response
// leases live from the probe round to the end of the refill round. On
// the harness above, every server answers one round in no less than
// step, and one holder is Cut and another Hung part-way through a
// Repair and a Repair that moves its key (the view drains the
// ring a join replaced) — before the probe, while its answers are in
// flight (so the refills meet the faults) and while the refill acks are
// (so the drains do). Whatever each call returns, the frame pool must
// balance, the values must read back intact once the faults clear — a
// lease recycled under a refill would corrupt one — and closing client
// and cluster must give every goroutine back.
func TestConvergenceHoldsNoLeaseAcrossFaults(t *testing.T) {
	const step = 30 * time.Millisecond
	for name, cfg := range migrationModes() {
		t.Run(name, func(t *testing.T) {
			idle := goroutineBaseline()
			baseline := poolDelta()
			cl, netem := startNetemCluster(t, 6)
			cfg.OpTimeout = 4 * step
			admin := newClient(t, cl, cfg)

			values := map[string][]byte{}
			var keys []string
			for i := 0; i < 12; i++ {
				// hybrid: half the keys replicated, half striped
				key := fmt.Sprintf("%s-lease-%02d", name, i)
				values[key] = bytes.Repeat([]byte{byte('a' + i)}, 1024+(i%2)*(16<<10))
				if err := admin.Set(key, values[key]); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, key)
			}
			if _, err := cl.AddServer("kv-joiner"); err != nil {
				t.Fatal(err)
			}
			if _, err := admin.RingAdd("kv-joiner"); err != nil {
				t.Fatal(err)
			}
			// One founder restarts empty, so every call has rewrites to
			// send: a repair under the draining view reads the moved
			// chunks where the old ring left them.
			restartFounder := func() {
				cl.Kill(0)
				if err := cl.RestartWithView(0, admin.View()); err != nil {
					t.Fatal(err)
				}
			}
			restartFounder()

			addrs := cl.Addrs()
			next := 0
			sweep := func(calls ...func(c *core.Client, i int)) {
				for _, call := range calls {
					for _, after := range []time.Duration{0, step / 2, 3 * step / 2} {
						for _, addr := range addrs {
							netem.Delay(addr, step)
						}
						// A client of its own, so one case's suspects do not
						// fast-fail the next.
						c := newClient(t, cl, cfg)
						c.AdoptView(admin.View())
						cut, hung := addrs[1+next%3], addrs[4+next%3]
						faults := time.AfterFunc(after, func() {
							netem.Cut(cut)
							netem.Hang(hung)
						})
						for i := 0; i < 2; i++ { // one small key, one large
							call(c, next+i)
						}
						faults.Stop()
						c.Close()
						for _, addr := range addrs {
							netem.Restore(addr)
						}
						next++
					}
				}
			}
			// The second half of the keys moves under faults while the view
			// drains; then every key moves, the drain finishes, the founder
			// restarts empty again, and the first half is verified and
			// repaired under faults at the steady view.
			sweep(func(c *core.Client, i int) { _, _ = c.Repair(keys[6+i%6]) })
			for _, key := range keys {
				if _, err := admin.Repair(key); err != nil {
					t.Fatalf("migrate %q: %v", key, err)
				}
			}
			finishDrain(t, admin)
			restartFounder()
			sweep(
				func(c *core.Client, i int) { _, _ = c.Repair(keys[i%6]) },
			)
			waitPoolBaseline(t, baseline)

			for key, want := range values {
				if _, err := admin.Repair(key); err != nil {
					t.Errorf("repair %q after the faults cleared: %v", key, err)
				}
				if got, err := admin.Get(key); err != nil || !bytes.Equal(got, want) {
					t.Errorf("get %q after the faults cleared: %d bytes, %v", key, len(got), err)
				}
			}
			waitPoolBaseline(t, baseline)
			admin.Close()
			cl.Close()
			awaitGoroutines(t, idle)
		})
	}
}
