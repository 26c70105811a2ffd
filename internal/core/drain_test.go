package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"ecstore/internal/core"
	"ecstore/internal/hashring"
	"ecstore/internal/wire"
)

// TestDrainingRingIsASource is the proof that no acknowledged write is
// lost to a drain still pending: a key is written, a join moves its
// copies or chunk positions, and a founder that keeps its position
// restarts empty — so the current placement alone holds fewer than K
// chunks of the stripe (or, replicated, answers not-found first). Before
// anything has moved, a Get must still read the value and a Repair must
// restore it, because the view's draining ring names where the rest
// lives. Read against the current ring alone, the Get fails and the
// erasure-coded Repair purges the surviving chunks as authoritative
// loss. In era-se-sd the Get is the primary's decode, and the founder
// that restarted empty is that primary.
func TestDrainingRingIsASource(t *testing.T) {
	modes := map[string]struct {
		cfg   core.Config
		width int
	}{
		"era-ce-cd": {migrationModes()["era-ce-cd"], 5},
		"era-se-sd": {allModes()["era-se-sd"], 5},
		"sync-rep":  {migrationModes()["sync-rep"], 3},
	}
	for name, mode := range modes {
		for _, leg := range []string{"get", "repair"} {
			t.Run(name+"/"+leg, func(t *testing.T) {
				cl := startCluster(t, 5)
				c := newClient(t, cl, mode.cfg)
				before := hashring.Build(0, cl.Addrs())
				after := hashring.Build(0, append(cl.Addrs(), "kv-joiner"))
				// A key the join moves two chunk positions of (a replica, for
				// replication), whose first holder stays where it was.
				key := ""
				for i := 0; key == ""; i++ {
					k := fmt.Sprintf("%s-loss-%d", name, i)
					old, cur := before.GetN(k, mode.width), after.GetN(k, mode.width)
					moved := 0
					for j := range cur {
						if cur[j] != old[j] {
							moved++
						}
					}
					if slices.Contains(cur, "kv-joiner") && cur[0] == old[0] && (mode.width == 3 || moved >= 2) {
						key = k
					}
				}
				value := bytes.Repeat([]byte("acked "), 1000)
				if err := c.Set(key, value); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.AddServer("kv-joiner"); err != nil {
					t.Fatal(err)
				}
				if _, err := c.RingAdd("kv-joiner"); err != nil {
					t.Fatal(err)
				}
				founder := slices.Index(cl.Addrs(), after.GetN(key, 1)[0])
				cl.Kill(founder)
				if err := cl.RestartWithView(founder, c.View()); err != nil {
					t.Fatal(err)
				}

				if leg == "repair" {
					report, err := c.Repair(key)
					if err != nil || report.Rewritten == 0 {
						t.Fatalf("repair before the drain: %+v, %v", report, err)
					}
				}
				if got, err := c.Get(key); err != nil || !bytes.Equal(got, value) {
					t.Fatalf("get before the drain: %d bytes, %v", len(got), err)
				}

				// Moved and drained, the current placement holds it all.
				if _, err := c.Repair(key); err != nil {
					t.Fatal(err)
				}
				finishDrain(t, c)
				requireConverged(t, c, key)
				if got, err := c.Get(key); err != nil || !bytes.Equal(got, value) {
					t.Fatalf("get after the drain: %d bytes, %v", len(got), err)
				}
			})
		}
	}
}

// TestCasCountsDrainingHolder: a CAS whose current chunk holders all
// lack the expected stripe still succeeds while a holder only the
// draining ring names keeps it — the state an epoch change leaves when
// it splits a CAS round (landed at the holders still on the old epoch,
// rejected at the rest, unwound over the old stripe). Judged by the
// current placement alone, the CAS reports not-found and the value the
// previous CAS acknowledged is gone.
func TestCasCountsDrainingHolder(t *testing.T) {
	cl := startCluster(t, 5)
	c := newClient(t, cl, migrationModes()["era-ce-cd"])
	before := hashring.Build(0, cl.Addrs())
	after := hashring.Build(0, append(cl.Addrs(), "kv-joiner"))
	key := ""
	var old, cur []string
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("cas-split-%d", i)
		old, cur = before.GetN(k, 5), after.GetN(k, 5)
		if !slices.Equal(old, cur) {
			key = k
		}
	}
	version, err := c.SetVersion(key, bytes.Repeat([]byte("v1"), 1000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddServer("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RingAdd("kv-joiner"); err != nil {
		t.Fatal(err)
	}
	// The positions that did not move lose their chunks, as the unwind
	// of a split CAS leaves them; the moved ones are still where the old
	// ring put them.
	for i := range cur {
		if cur[i] == old[i] {
			cl.Server(slices.Index(cl.Addrs(), cur[i])).Store().Delete(wire.ChunkKey(key, i))
		}
	}
	want := bytes.Repeat([]byte("v2"), 1000)
	if _, err := c.Cas(key, want, 0, version); err != nil {
		t.Fatalf("cas with the expected stripe on a draining holder: %v", err)
	}
	if got, err := c.Get(key); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("get after the cas: %d bytes, %v", len(got), err)
	}
}

// TestFlushAllDuringDrain: while a view drains, a server only the
// draining ring names still holds its copies and reads still ask it, so
// flush_all must clear it too. A removal with no pass after it leaves
// every key the removed server held there alone; after FlushAll, every
// Get answers not found, none reads an old value back, and none is
// unavailable.
func TestFlushAllDuringDrain(t *testing.T) {
	for _, name := range []string{"sync-rep", "era-ce-cd", "hybrid"} {
		t.Run(name, func(t *testing.T) {
			cl := startCluster(t, 5)
			c := newClient(t, cl, allModes()[name])
			keys := make([]string, 64)
			for i := range keys {
				keys[i] = fmt.Sprintf("%s-flush-%02d", name, i)
				if err := c.Set(keys[i], bytes.Repeat([]byte{'f'}, 100+(i%2)*(16<<10))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.RingRemove(cl.Addrs()[0]); err != nil {
				t.Fatal(err)
			}
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
			for _, key := range keys {
				if got, err := c.Get(key); !errors.Is(err, core.ErrNotFound) {
					t.Errorf("Get(%s) after FlushAll during a drain: %d bytes, %v; want not found", key, len(got), err)
				}
			}
		})
	}
}
