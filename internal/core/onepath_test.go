package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/hashring"
	"ecstore/internal/membership"
	"ecstore/internal/wire"
)

// TestECDeleteWaitsOutEveryFrame pins the fix for a drift between the
// former single-key and bulk deletes: the single-key erasure-coded
// Delete returned on the first chunk status that was neither OK nor
// NotFound, leaving its other issued deletes in flight and their pooled
// responses never released. A client one epoch behind the servers makes
// every chunk holder answer StatusWrongEpoch (carrying the newer view,
// so each response has a pooled body): the Delete must wait out and
// release all K+M of them before the epoch retry re-resolves, leave the
// frame pool balanced, and put nothing on the wire after it returns.
func TestECDeleteWaitsOutEveryFrame(t *testing.T) {
	baseline := poolDelta()
	cl := startCluster(t, 5)
	c := newClient(t, cl, allModes()["era-ce-cd"])
	// The next epoch places by other servers — an epoch that only clears
	// draining rings is accepted at the previous one — but not this key:
	// the retry deletes the chunks the Set wrote.
	next := membership.View{Epoch: c.View().Epoch + 1, Servers: append(slices.Clone(c.View().Servers), "kv-ghost")}
	key := ""
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("stale-delete-%d", i)
		if slices.Equal(hashring.Build(0, next.Servers).GetN(k, 5), hashring.Build(0, c.View().Servers).GetN(k, 5)) {
			key = k
		}
	}
	if err := c.Set(key, bytes.Repeat([]byte("d"), 4<<10)); err != nil {
		t.Fatal(err)
	}
	for i := range cl.Addrs() {
		if !cl.Server(i).AdoptView(next) {
			t.Fatalf("server %d refused epoch %d", i, next.Epoch)
		}
	}

	if err := c.Delete(key); err != nil {
		t.Fatalf("Delete across an epoch bump: %v", err)
	}
	if c.View().Epoch != next.Epoch {
		t.Fatalf("client still at epoch %d after the retry", c.View().Epoch)
	}
	deletes := func() (n int64) {
		for i := range cl.Addrs() {
			n += cl.Server(i).Metrics().Snapshot().Counter(`ecstore_server_ops_total{op="delete"}`)
		}
		return n
	}
	landed := deletes()
	time.Sleep(50 * time.Millisecond)
	if later := deletes(); later != landed {
		t.Errorf("%d deletes reached the servers after Delete returned", later-landed)
	}
	if _, err := c.Get(key); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Get after Delete: %v, want ErrNotFound", err)
	}
	waitPoolBaseline(t, baseline)
}

// TestSingleKeyCostThroughExecutor pins what an operation costs on the
// path every operation shares: heap allocations per blocking call on a
// 5-server in-proc cluster (client and servers share the process, so
// the servers' allocations are counted too), and that neither a Get nor
// a 16-key MGet leaves or spawns a goroutine — the executor issues and
// waits on the caller's. bench/ is a nested module outside
// `go test ./...`; these rows are its tier-1 stand-ins for allocs/op:
// the era-ce-cd pair for ycsb-b-1k, the hybrid MGet (two of its sixteen
// keys above the threshold, so both representations answer) for
// proxy-mget below the proxy, and the fresh 256 KB Set for burst-1m —
// one round of K+M chunk writes, no read before it. The Gets with chunks
// out of reach stand in for degraded-64k, and must still return the value
// and leave the frame pool balanced. After the warm-up reads the client's
// ledger skips every holder that kept missing, so each of them is ONE
// round of K calls that decodes from a cached inverse: with one data
// chunk lost (degraded-64k's shape: the holder is up, the chunk gone) or
// one data holder cut, the first round asks the other data chunks and one
// parity chunk; with a parity holder cut, or a parity chunk lost, as
// well, that parity chunk is the other one.
func TestSingleKeyCostThroughExecutor(t *testing.T) {
	baseline := poolDelta()
	cl, netem := startNetemCluster(t, 5)
	small := bytes.Repeat([]byte("v"), 1<<10)
	large := bytes.Repeat([]byte("V"), 32<<10)
	big := bytes.Repeat([]byte("B"), 256<<10)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("cost-%d", i)
	}
	// Fresh keys for the 256 KB row, enough for its few calls.
	fresh := make([]string, 64)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("cost-fresh-%d", i)
	}
	// Ceilings are measured counts plus 2 of headroom, from when the
	// server began lending request keys, the rpc round began outliving
	// its operation and a one-key read began keeping its state in the
	// batcher (the commit before measured 13 / 28 / 19 / 10 / 14 / 106 /
	// 130 / 25 down the table), and — for the degraded rows — from when
	// a read's first round began asking around the holders that keep
	// missing (8 objects each before, 3 of them the error of the call
	// refused to the suspect holder; 19 before a degraded read asked only
	// for the parity it lacks and decoded from a cached inverse).
	// calls, where set, is the exact rpc calls per operation (10 for the
	// fresh Set while it read first; 4 for the lost-parity row while the
	// first round was the data chunks; a call refused to a suspect holder
	// is not one). The Cas rows, added last, rewrite the key with the
	// token the last Cas returned: one round of K+M conditional chunk
	// writes from the client in era-se-sd too, whose Set goes through the
	// server coordinator (14 objects each; 15 while Cas had a stripe
	// writer of its own). The era-se-sd Get, Set and MGet rows, added
	// after them, count the coordinating servers too: a Get or Set is one
	// plain frame to its coordinator (10 and 21 objects; the Set 24 while
	// the client's coordinatorSet first listed the writes the delta
	// overwrite path had left it), a 16-key MGet one frame per
	// coordinator (16 plain frames and 83 objects before; 173 now, as
	// every holder decodes and encodes a batch frame where a plain
	// get-chunk allocated nothing). The DeleteCas rows delete a key of
	// their own a call, with the version it holds: one round of K+M
	// (era-ce-cd) or F (sync-rep) conditional deletes. cut and lost name
	// chunk positions of the key read: their holders are cut off, their
	// chunks deleted. The read rows fell last, when a read's miss began
	// keeping its key, its result, its led flight and its walk's state in
	// memory the operation already owns (the commit before measured 5 for
	// every era-ce-cd Get row, degraded too, 7 for the sync-rep Get, 75 /
	// 74 for the hybrid and era-ce-cd MGet, and 10 / 21 / 173 for the
	// era-se-sd Get, Set and MGet): an era-ce-cd Get is now 3 objects, the
	// batcher, the chunk-key string and the joined value. The MGet rows
	// fell again when a batch frame's sub-request list moved from a slice
	// grown in each batcher to the stack (72 / 72 / 170 before; 67 / 67 /
	// 154 then). Every row fell last when the batcher began to be recycled
	// with its round and a slab of call slots it hands out once each, and
	// the wire encoder began writing the chunk keys a request names by its
	// chunk field (the commit before measured 3 for every era-ce-cd Get
	// row, 16 / 3 / 12 / 67 / 67 / 23 / 15 / 15 / 6 / 19 / 154 / 5 / 4
	// down the rest of the table): an era-ce-cd Get, degraded too, is now
	// one object, the joined value; a Set twelve, the five keys and five
	// values its holders keep, the []write and the pooled-shards handle;
	// the era-ce-cd MGet no longer builds sixteen keys' chunk-key strings.
	rows := []struct {
		name      string
		mode      core.Config
		mixed     bool // every eighth key holds the large value
		op        string
		allocs    float64
		calls     int64
		cut, lost []int
	}{
		{"era-ce-cd Get", allModes()["era-ce-cd"], false, "get", 3, 0, nil, nil},
		{"era-ce-cd Get, one data chunk lost", allModes()["era-ce-cd"], false, "get-degraded", 3, 3, nil, []int{0}},
		{"era-ce-cd Get, one data holder cut", allModes()["era-ce-cd"], false, "get-degraded", 3, 3, []int{0}, nil},
		{"era-ce-cd Get, one data holder and one parity holder cut", allModes()["era-ce-cd"], false, "get-degraded", 3, 3, []int{0, 3}, nil},
		{"era-ce-cd Get, one data holder cut and one parity chunk lost", allModes()["era-ce-cd"], false, "get-degraded", 3, 3, []int{0}, []int{3}},
		{"era-ce-cd Set", allModes()["era-ce-cd"], false, "set", 14, 0, nil, nil},
		{"sync-rep Get", allModes()["sync-rep"], false, "get", 4, 0, nil, nil},
		{"sync-rep Set", allModes()["sync-rep"], false, "set", 13, 0, nil, nil},
		{"hybrid MGet x16", allModes()["hybrid"], true, "mget", 66, 0, nil, nil},
		{"era-ce-cd MGet x16", allModes()["era-ce-cd"], false, "mget", 52, 0, nil, nil},
		{"era-ce-cd Set fresh 256KB", allModes()["era-ce-cd"], false, "set-fresh", 20, 5, nil, nil},
		{"era-ce-cd Cas", allModes()["era-ce-cd"], false, "cas", 14, 5, nil, nil},
		{"era-se-sd Cas", allModes()["era-se-sd"], false, "cas", 14, 5, nil, nil},
		{"era-se-sd Get", allModes()["era-se-sd"], false, "get", 5, 1, nil, nil},
		{"era-se-sd Set", allModes()["era-se-sd"], false, "set", 16, 1, nil, nil},
		{"era-se-sd MGet x16", allModes()["era-se-sd"], false, "mget", 135, 5, nil, nil},
		{"era-ce-cd DeleteCas", allModes()["era-ce-cd"], false, "delete-cas", 5, 5, nil, nil},
		{"sync-rep DeleteCas", allModes()["sync-rep"], false, "delete-cas", 5, 3, nil, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := newClient(t, cl, row.mode)
			for i, key := range keys {
				value := small
				if row.mixed && i%8 == 0 {
					value = large
				}
				if err := c.Set(key, value); err != nil {
					t.Fatal(err)
				}
			}
			// token is the version the next Cas of the key expects.
			var token uint64
			if row.op == "cas" {
				item, err := c.Gets(keys[1])
				if err != nil {
					t.Fatal(err)
				}
				token = item.Version
			}
			// victims are the keys a DeleteCas row deletes, one a call,
			// each with the version it holds.
			type victim struct {
				key     string
				version uint64
			}
			var victims []victim
			for i := 0; row.op == "delete-cas" && i < 300; i++ {
				v := victim{key: fmt.Sprintf("%s-victim-%d", row.name, i)}
				var err error
				if v.version, err = c.SetVersion(v.key, small, 0); err != nil {
					t.Fatal(err)
				}
				victims = append(victims, v)
			}
			// holderOf is the server holding chunk pos of the key read.
			holderOf := func(pos int) (i int, addr string) {
				for i, addr := range cl.Addrs() {
					if _, ok := cl.Server(i).Store().Get(wire.ChunkKey(keys[1], pos)); ok {
						return i, addr
					}
				}
				t.Fatalf("no server holds chunk %d", pos)
				return 0, ""
			}
			for _, pos := range row.lost {
				i, _ := holderOf(pos)
				cl.Server(i).Store().Delete(wire.ChunkKey(keys[1], pos))
			}
			for _, pos := range row.cut {
				_, addr := holderOf(pos)
				netem.Cut(addr)
				defer netem.Restore(addr)
			}
			ops := map[string]func(){
				"get": func() {
					if _, err := c.Get(keys[1]); err != nil {
						t.Fatal(err)
					}
				},
				"get-degraded": func() {
					if v, err := c.Get(keys[1]); err != nil || !bytes.Equal(v, small) {
						t.Fatalf("Get with chunks out of reach: %d bytes, %v", len(v), err)
					}
				},
				"set": func() {
					if err := c.Set(keys[1], small); err != nil {
						t.Fatal(err)
					}
				},
				"cas": func() {
					v, err := c.Cas(keys[1], small, 0, token)
					if err != nil {
						t.Fatal(err)
					}
					token = v
				},
				"delete-cas": func() {
					if err := c.DeleteCas(victims[0].key, victims[0].version); err != nil {
						t.Fatal(err)
					}
					victims = victims[1:]
				},
				"mget": func() {
					if found, err := c.MGet(keys); err != nil || len(found) != len(keys) {
						t.Fatalf("MGet: %d found, %v", len(found), err)
					}
				},
				"set-fresh": func() {
					if err := c.Set(fresh[0], big); err != nil {
						t.Fatal(err)
					}
					fresh = fresh[1:]
				},
			}
			op := ops[row.op]
			// Warm the connections, pools and lazily started workers; the
			// 256 KB row, whose every call stores a new key, runs less.
			warm, runs := 20, 200
			if row.op == "set-fresh" {
				warm, runs = 5, 20
			}
			for i := 0; i < warm; i++ {
				op()
			}
			if row.calls > 0 {
				calls := func() int64 { return c.Metrics().Snapshot().Counter("ecstore_rpc_calls_total") }
				before := calls()
				op()
				if got := calls() - before; got != row.calls {
					t.Errorf("makes %d rpc calls, want %d", got, row.calls)
				}
			}
			// The race detector's instrumentation allocates; the counts
			// are pinned without it.
			if !raceEnabled {
				if got := testing.AllocsPerRun(runs, op); got > row.allocs {
					t.Errorf("allocates %.0f objects, want <= %.0f", got, row.allocs)
				} else {
					t.Logf("allocates %.0f objects", got)
				}
			}
			if row.op == "set" || row.op == "set-fresh" {
				return
			}
			before := runtime.NumGoroutine()
			sawMore := false
			for i := 0; i < 50; i++ {
				op()
				if runtime.NumGoroutine() != before {
					sawMore = true
				}
			}
			if sawMore {
				t.Errorf("changed the goroutine count (was %d, now %d)", before, runtime.NumGoroutine())
			}
			if row.op == "get-degraded" {
				waitPoolBaseline(t, baseline)
			}
		})
	}
}
