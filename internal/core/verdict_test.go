package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// chunkState is what one chunk location of a key does when read.
type chunkState int

const (
	holds   chunkState = iota // answers with its chunk
	missing                   // answers not-found: the chunk was deleted
	cut                       // unreachable: its holder is cut off
)

func (s chunkState) String() string { return [...]string{"holds", "missing", "cut"}[s] }

// chunkHolders returns, for each of key's n chunk positions, the index of
// the server holding it.
func chunkHolders(cl *cluster.Cluster, key string, n int) []int {
	holder := make([]int, n)
	for i := range holder {
		for s := range cl.Addrs() {
			if _, ok := cl.Server(s).Store().Get(wire.ChunkKey(key, i)); ok {
				holder[i] = s
			}
		}
	}
	return holder
}

// TestDegradedReadVerdicts pins that a degraded read answers exactly what
// asking every chunk location would: for each of the 3^5 states of an
// RS(3,2) key's five locations, Get in era-ce-cd and era-se-sd — one
// decoder, gatherGet, reached by the client's own read and through the
// primary's decode-get — returns the value when at least K locations
// hold their chunk, ErrNotFound when none does and the cut ones
// could not hold K between them, and ErrUnavailable otherwise. Four more
// rows mix stripes. At RS(3,2), chunks 0 and 1 come from an older write,
// so the most complete stripe of the data round is the older one. At
// RS(2,2), chunks 1 and 2 do: each stripe reaches K only with a parity
// chunk, and asking for one parity chunk would decode the older one, where
// asking for both finds the newer at K too and its higher stripe wins.
// The last row reads that key with position 0's holder skipped: a first
// round asking around it would be chunks 1 and 2, the older stripe at K,
// so at K <= M the first round must stay the data chunks.
//
// Each state runs on a fresh cluster and fresh clients, so no holder is
// suspect or skipped from an earlier state. Each client reads the key
// four times, and every read must give the verdict: the fourth runs with
// the holders that missed in the three before avoided by its pool.
func TestDegradedReadVerdicts(t *testing.T) {
	v1, v2 := bytes.Repeat([]byte("1"), 3<<10), bytes.Repeat([]byte("2"), 3<<10)
	type row struct {
		k, m   int
		states []chunkState // one per chunk position
		older  []int        // positions holding v1's chunk; the rest hold v2's
		// skipped are positions whose holders the readers' pools avoid:
		// their chunks are gone for three reads, then put back.
		skipped []int
		want    []byte // nil: the error below
		err     error
	}
	var rows []row
	for code := 0; code < 243; code++ {
		r := row{k: 3, m: 2, states: make([]chunkState, 5)}
		held, cuts := 0, 0
		for i, c := 0, code; i < len(r.states); i, c = i+1, c/3 {
			r.states[i] = chunkState(c % 3)
			switch r.states[i] {
			case holds:
				held++
			case cut:
				cuts++
			}
		}
		switch {
		case held >= r.k:
			r.want = v2
		case held == 0 && cuts < r.k:
			r.err = core.ErrNotFound
		default:
			r.err = core.ErrUnavailable
		}
		rows = append(rows, r)
	}
	rows = append(rows,
		row{k: 3, m: 2, states: make([]chunkState, 5), older: []int{0, 1}, want: v2},
		row{k: 3, m: 2, states: []chunkState{4: missing}, older: []int{0, 1}, err: core.ErrUnavailable},
		row{k: 2, m: 2, states: make([]chunkState, 4), older: []int{1, 2}, want: v2},
		row{k: 2, m: 2, states: make([]chunkState, 4), older: []int{1, 2}, skipped: []int{0}, want: v2},
	)

	for _, r := range rows {
		name := []string{fmt.Sprintf("RS(%d,%d)", r.k, r.m)}
		for _, s := range r.states {
			name = append(name, s.String())
		}
		if r.older != nil {
			name = append(name, fmt.Sprint("older", r.older))
		}
		if r.skipped != nil {
			name = append(name, fmt.Sprint("skipped", r.skipped))
		}
		t.Run(strings.Join(name, ","), func(t *testing.T) {
			cl, netem := startNetemCluster(t, 5)
			cfg := func(mode string) core.Config {
				c := allModes()[mode]
				c.K, c.M = r.k, r.m
				c.OpTimeout, c.MaxRetries = 500*time.Millisecond, -1
				return c
			}
			w := newClient(t, cl, cfg("era-ce-cd"))
			const key = "verdict"
			if err := w.Set(key, v1); err != nil {
				t.Fatal(err)
			}
			holder := chunkHolders(cl, key, r.k+r.m)
			old := make([][]byte, len(r.older))
			oldStripe := make([]uint64, len(r.older))
			for o, i := range r.older {
				old[o], oldStripe[o], _, _ = cl.Server(holder[i]).Store().GetMeta(wire.ChunkKey(key, i))
			}
			if err := w.Set(key, v2); err != nil {
				t.Fatal(err)
			}
			modes := []string{"era-ce-cd", "era-se-sd"}
			readers := make([]*core.Client, len(modes))
			for m, mode := range modes {
				readers[m] = newClient(t, cl, cfg(mode))
			}
			if r.skipped != nil {
				lost := make([][]byte, len(r.skipped))
				lostStripe := make([]uint64, len(r.skipped))
				for s, i := range r.skipped {
					store := cl.Server(holder[i]).Store()
					lost[s], lostStripe[s], _, _ = store.GetMeta(wire.ChunkKey(key, i))
					store.Delete(wire.ChunkKey(key, i))
				}
				for _, c := range readers {
					for range 3 {
						if got, err := c.Get(key); err != nil || !bytes.Equal(got, v2) {
							t.Fatalf("Get with chunks %v lost: %v", r.skipped, err)
						}
					}
				}
				for s, i := range r.skipped {
					if err := cl.Server(holder[i]).Store().SetVersioned(wire.ChunkKey(key, i), lost[s], 0, lostStripe[s]); err != nil {
						t.Fatal(err)
					}
				}
			}
			for o, i := range r.older {
				if err := cl.Server(holder[i]).Store().SetVersioned(wire.ChunkKey(key, i), old[o], 0, oldStripe[o]); err != nil {
					t.Fatal(err)
				}
			}
			for i, s := range r.states {
				switch s {
				case missing:
					cl.Server(holder[i]).Store().Delete(wire.ChunkKey(key, i))
				case cut:
					netem.Cut(cl.Addrs()[holder[i]])
				}
			}
			for m, mode := range modes {
				for read := 1; read <= 4; read++ {
					got, err := readers[m].Get(key)
					switch {
					case r.want != nil && (err != nil || !bytes.Equal(got, r.want)):
						t.Errorf("%s read %d: %d bytes of %q, %v; want the value", mode, read, len(got), got[:min(len(got), 1)], err)
					case r.want == nil && !errors.Is(err, r.err):
						t.Errorf("%s read %d: %v; want %v", mode, read, err, r.err)
					case r.err == core.ErrUnavailable && errors.Is(err, core.ErrNotFound):
						t.Errorf("%s read %d: %v; want %v only", mode, read, err, r.err)
					}
				}
			}
		})
	}
}

// restampChunk rewrites key's chunk i in place with a different stripe
// ID (same chunk bytes), simulating a holder whose chunk belongs to
// another write.
func restampChunk(t *testing.T, cl *cluster.Cluster, key string, i int, stripe uint64) {
	t.Helper()
	st := cl.Server(chunkHolders(cl, key, i+1)[i]).Store()
	ck := wire.ChunkKey(key, i)
	payload, _ := st.Get(ck)
	meta, chunk, err := wire.DecodeChunkPayload(payload)
	if err != nil {
		t.Fatalf("decode chunk %d: %v", i, err)
	}
	meta.Stripe = stripe
	if err := st.SetVersioned(ck, wire.EncodeChunkPayload(meta, chunk), 0, stripe); err != nil {
		t.Fatal(err)
	}
}

// TestMixedVersionStripeRefused pins a read-path invariant: chunks of
// DIFFERENT stripe versions are never blended into one decode. With the
// five chunks split 2/2/1 across three stripes, no stripe reaches K=3
// and the read must refuse — returning unavailability, never a
// franken-value.
func TestMixedVersionStripeRefused(t *testing.T) {
	cl := startCluster(t, 5)
	cfg := allModes()["era-ce-cd"]
	cfg.MaxRetries = -1
	cfg.OpTimeout = 2 * time.Second
	c := newClient(t, cl, cfg)

	key := "mixed"
	v1 := make([]byte, 30<<10)
	rand.New(rand.NewSource(7)).Read(v1)
	ver1, err := c.SetVersion(key, v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks 0,1 stay at ver1; 2,3 move to a second stripe; 4 to a
	// third. Every chunk is individually valid (right CRC, right
	// geometry) — only the stripe IDs disagree.
	restampChunk(t, cl, key, 2, ver1+1)
	restampChunk(t, cl, key, 3, ver1+1)
	restampChunk(t, cl, key, 4, ver1+2)

	_, err = c.Get(key)
	if err == nil {
		t.Fatal("Get decoded a mixed-version stripe")
	}
	if !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("mixed-version read: %v, want ErrUnavailable", err)
	}
}

// TestDegradedReadRoundsUnderHang bounds what asking for parity one step
// at a time costs in time when a holder hangs, in OpTimeouts (T), for an
// era-ce-cd RS(3,2) Get with retries off. Asking for every parity chunk
// at once waited out a hung parity holder whenever a data chunk was lost
// (T), and an undecodable read two hung rounds (2T). Now:
//   - the hung holder is not the one the parity round asks: no wait;
//   - it is: the parity round waits it out, the last round asks the
//     other, under 2T;
//   - one hung holder in each of the three rounds, the read undecodable:
//     three waits, 3T — one round more than before, and no more;
//   - a hung data holder: each of a client's first three reads waits it
//     out (T), and the fourth, its pool now avoiding the holder for its
//     misses, asks the other data chunks and a parity chunk in one round:
//     no wait;
//   - a cut data holder three of the client's Sets failed on, so its pool
//     has it down: the first read asks around it, one round of K calls,
//     none of them refused to the down holder.
func TestDegradedReadRoundsUnderHang(t *testing.T) {
	const opTimeout = 300 * time.Millisecond
	value := bytes.Repeat([]byte("v"), 3<<10)
	cases := []struct {
		name      string
		cut, hung []int // chunk positions
		ok        bool
		budget    time.Duration
		waits     int  // reads before the timed one, each waiting T
		down      bool // Sets fail on the cut holders first, taking them down
	}{
		{"hung parity not asked", []int{0}, []int{4}, true, opTimeout / 2, 0, false},
		{"hung parity asked", []int{0}, []int{3}, true, 2 * opTimeout, 0, false},
		{"hung holder in every round", nil, []int{0, 3, 4}, false, 3*opTimeout + opTimeout/2, 0, false},
		{"hung data holder, fourth read", nil, []int{0}, true, opTimeout / 2, 3, false},
		{"down data holder, first read", []int{0}, nil, true, opTimeout / 2, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, netem := startNetemCluster(t, 5)
			cfg := core.Config{
				Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2,
				OpTimeout: opTimeout, MaxRetries: -1,
			}
			const key = "hang"
			if err := newClient(t, cl, cfg).Set(key, value); err != nil {
				t.Fatal(err)
			}
			holder := chunkHolders(cl, key, 5)
			for _, i := range tc.cut {
				netem.Cut(cl.Addrs()[holder[i]])
			}
			for _, i := range tc.hung {
				addr := cl.Addrs()[holder[i]]
				netem.Hang(addr)
				t.Cleanup(func() { netem.Restore(addr) })
			}
			c := newClient(t, cl, cfg)
			if tc.down {
				for i := 0; i < rpc.DefaultFailureThreshold; i++ {
					if err := c.Set(fmt.Sprintf("down-%d", i), value); err == nil {
						t.Fatalf("Set %d succeeded with a chunk holder cut", i)
					}
				}
			}
			counter := func(name string) int64 { return c.Metrics().Snapshot().Counter(name) }
			names := []string{"ecstore_rpc_calls_total", "ecstore_rpc_failfast_total", "ecstore_rpc_send_errors_total", "ecstore_client_skipped_holder_reads_total"}
			before := make([]int64, len(names))
			for i, name := range names {
				before[i] = counter(name)
			}
			for read := 1; read <= tc.waits; read++ {
				start := time.Now()
				if got, err := c.Get(key); err != nil || !bytes.Equal(got, value) {
					t.Fatalf("read %d: %v; want the value", read, err)
				}
				if elapsed := time.Since(start); elapsed < opTimeout {
					t.Fatalf("read %d took %v; want it to wait out the hung holder (%v)", read, elapsed, opTimeout)
				}
			}
			start := time.Now()
			got, err := c.Get(key)
			elapsed := time.Since(start)
			t.Logf("%v (%.2f T), err %v", elapsed, float64(elapsed)/float64(opTimeout), err)
			switch {
			case tc.ok && (err != nil || !bytes.Equal(got, value)):
				t.Fatalf("Get: %v; want the value", err)
			case !tc.ok && !errors.Is(err, core.ErrUnavailable):
				t.Fatalf("Get: %v; want ErrUnavailable", err)
			case elapsed > tc.budget:
				t.Fatalf("Get took %v; budget %v", elapsed, tc.budget)
			}
			if tc.down {
				// K calls, none refused or failed to send, and one position
				// moved off the down holder: the first round decoded.
				want := []int64{3, 0, 0, 1}
				for i, name := range names {
					if got := counter(name) - before[i]; got != want[i] {
						t.Errorf("%s moved by %d, want %d", name, got, want[i])
					}
				}
			}
		})
	}
}

// TestSkippedHolderRejoins pins the miss run's way back. A data holder
// restarted empty answers not-found on every read; after three the
// client skips it, and its reads are one round around it, still
// degraded. Once the chunks are rewritten the holder stays skipped for
// the rest of its window, so reads stay degraded; the first read after
// the window asks it again, and from then on no read is degraded.
func TestSkippedHolderRejoins(t *testing.T) {
	cl := startCluster(t, 5)
	cfg := core.Config{Resilience: core.ResilienceErasure, Scheme: core.SchemeCECD, K: 3, M: 2, MaxRetries: -1}
	value := bytes.Repeat([]byte("r"), 3<<10)
	const key = "rejoin"
	if err := newClient(t, cl, cfg).Set(key, value); err != nil {
		t.Fatal(err)
	}
	restarted := chunkHolders(cl, key, 5)[0]
	cl.Kill(restarted)
	if err := cl.Restart(restarted); err != nil {
		t.Fatal(err)
	}

	c := newClient(t, cl, cfg)
	var mu sync.Mutex
	now := time.Now()
	core.SetClock(c, func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	counter := func(name string) int64 { return c.Metrics().Snapshot().Counter(name) }
	// read reads the key and returns what the read cost: its rpc calls,
	// whether it was degraded (1) or not (0), and the first-round
	// positions it moved off a skipped holder.
	read := func() (calls, degraded, moved int64) {
		t.Helper()
		c0, d0, m0 := counter("ecstore_rpc_calls_total"), counter("ecstore_client_degraded_reads_total"), counter("ecstore_client_skipped_holder_reads_total")
		if got, err := c.Get(key); err != nil || !bytes.Equal(got, value) {
			t.Fatalf("Get: %v", err)
		}
		return counter("ecstore_rpc_calls_total") - c0, counter("ecstore_client_degraded_reads_total") - d0, counter("ecstore_client_skipped_holder_reads_total") - m0
	}
	for i := 1; i <= 3; i++ {
		if calls, degraded, moved := read(); calls != 4 || degraded != 1 || moved != 0 {
			t.Fatalf("read %d: %d calls, %d degraded, %d moved; want two rounds (4 calls), degraded, none moved", i, calls, degraded, moved)
		}
	}
	if calls, degraded, moved := read(); calls != 3 || degraded != 1 || moved != 1 {
		t.Fatalf("fourth read: %d calls, %d degraded, %d moved; want one round (3 calls) around the skipped holder, degraded", calls, degraded, moved)
	}

	if err := c.Set(key, value); err != nil {
		t.Fatal(err)
	}
	if calls, degraded, moved := read(); calls != 3 || degraded != 1 || moved != 1 {
		t.Fatalf("read inside the window: %d calls, %d degraded, %d moved; want the holder still skipped", calls, degraded, moved)
	}
	mu.Lock()
	now = now.Add(rpc.DefaultProbeMax)
	mu.Unlock()
	for i := 1; i <= 3; i++ {
		if calls, degraded, moved := read(); calls != 3 || degraded != 0 || moved != 0 {
			t.Fatalf("read %d after the window: %d calls, %d degraded, %d moved; want the data chunks, whole", i, calls, degraded, moved)
		}
	}
}
