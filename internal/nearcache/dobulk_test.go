package nearcache

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The bulk cases of Cache.Fetch. The former "fetch forgot a key" case
// is gone with the error it pinned: results are slots the fetch fills
// by position, so an omission is not representable — a slot left alone
// is the empty value, and every led key has one.

// fetchMap runs g.Fetch over a copy of keys and returns the outcome
// keyed by key string, which is how these cases read best; fetch fills
// res[i] for lead[i].
func fetchMap(g *Cache, keys []string, fetch func(lead []string, res []Result)) (values map[string]Value, errs map[string]error, joined int) {
	keys = append([]string(nil), keys...)
	res := make([]Result, len(keys))
	joined = g.Fetch(keys, res, func(lead []string) { fetch(lead, res) })
	values, errs = make(map[string]Value), make(map[string]error)
	for i, key := range keys {
		if res[i].Err != nil {
			errs[key] = res[i].Err
		} else {
			values[key] = res[i].Value
		}
	}
	return values, errs, joined
}

// fetchOne is a read of one key: the value, whether it was another
// caller's fetch that served it, and the error.
func fetchOne(g *Cache, key string, fn func() (Value, error)) (Value, bool, error) {
	keys, res := [1]string{key}, [1]Result{}
	joined := g.Fetch(keys[:], res[:], func([]string) {
		res[0].Value, res[0].Err = fn()
	})
	return res[0].Value, joined == 1, res[0].Err
}

func TestDoBulkLeadsAllWhenIdle(t *testing.T) {
	g := New(Config{})
	var calls int32
	var gotLead []string
	boom := errors.New("boom")
	values, errs, joined := fetchMap(g, []string{"b", "a", "c"}, func(lead []string, res []Result) {
		atomic.AddInt32(&calls, 1)
		gotLead = append([]string(nil), lead...)
		for i, key := range lead {
			switch key {
			case "a":
				res[i].Value = Value{Data: []byte("va"), Version: 1}
			case "b":
				res[i].Value = Value{Data: []byte("vb"), Version: 2}
			case "c":
				res[i].Err = boom
			}
		}
	})
	if calls != 1 {
		t.Fatalf("fetch ran %d times, want 1", calls)
	}
	if fmt.Sprint(gotLead) != "[b a c]" {
		t.Fatalf("lead = %v, want all three keys in input order", gotLead)
	}
	if joined != 0 {
		t.Fatalf("joined = %d with no concurrent flights", joined)
	}
	if len(values) != 2 || !bytes.Equal(values["a"].Data, []byte("va")) || values["b"].Version != 2 {
		t.Fatalf("values = %v", values)
	}
	if len(errs) != 1 || errs["c"] != boom {
		t.Fatalf("errs = %v", errs)
	}
}

// A key listed twice is fetched once: the later occurrences join the
// flight the first one leads, and every position still gets a result of
// its own.
func TestDoBulkDedupesKeys(t *testing.T) {
	g := New(Config{})
	keys := []string{"k", "k", "j", "k"}
	res := make([]Result, len(keys))
	joined := g.Fetch(keys, res, func(lead []string) {
		if fmt.Sprint(lead) != "[k j]" {
			t.Errorf("lead = %v, want the 2 distinct keys in input order", lead)
		}
		for i, key := range lead {
			res[i].Data = []byte(key)
		}
	})
	if joined != 2 {
		t.Fatalf("joined = %d, want the 2 repeats", joined)
	}
	for i, key := range keys {
		if res[i].Err != nil || string(res[i].Data) != key {
			t.Fatalf("position %d (%s) = %q, %v", i, key, res[i].Data, res[i].Err)
		}
	}
}

// TestDoBulkJoinsInFlightDo: keys already being fetched by a
// single-key leader are joined, not re-fetched — and the joined result
// is the leader's own bytes, shared read-only.
func TestDoBulkJoinsInFlightDo(t *testing.T) {
	g := New(Config{})
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	leaderDone := make(chan Value, 1)
	go func() {
		v, _, _ := fetchOne(g, "hot", func() (Value, error) {
			close(leaderIn)
			<-release
			return Value{Data: []byte("shared"), Version: 7}, nil
		})
		leaderDone <- v
	}()
	<-leaderIn

	var fetchLead []string
	// The bulk call parks on "hot" until the leader finishes.
	values, errs, joined := fetchMap(g, []string{"hot", "cold"}, func(lead []string, res []Result) {
		fetchLead = append([]string(nil), lead...)
		// Registration (including the join on "hot") happened before
		// this fetch ran, so the leader may finish now.
		close(release)
		res[0].Data = []byte("mine")
	})

	if fmt.Sprint(fetchLead) != "[cold]" {
		t.Fatalf("bulk fetch led %v, want only the un-flighted key", fetchLead)
	}
	if joined != 1 {
		t.Fatalf("joined = %d, want 1", joined)
	}
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if !bytes.Equal(values["cold"].Data, []byte("mine")) {
		t.Fatalf(`values["cold"] = %v`, values["cold"])
	}
	if !bytes.Equal(values["hot"].Data, []byte("shared")) || values["hot"].Version != 7 {
		t.Fatalf(`values["hot"] = %v`, values["hot"])
	}
	// The joined bytes are the leader's buffer, not a copy of it.
	if leaderV := <-leaderDone; &values["hot"].Data[0] != &leaderV.Data[0] {
		t.Fatal("joined waiter received a copy of the leader's bytes")
	}
}

// TestDoBulkServesDoWaiters: a single-key read that parks on a key a
// bulk read is leading receives the bulk fetch's result,
// and the bulk caller counts no join for it.
func TestDoBulkServesDoWaiters(t *testing.T) {
	g := New(Config{})
	fetchIn := make(chan struct{})
	release := make(chan struct{})
	bulkDone := make(chan int, 1)
	go func() {
		_, _, joined := fetchMap(g, []string{"led"}, func(lead []string, res []Result) {
			close(fetchIn)
			<-release
			res[0].Value = Value{Data: []byte("bulk"), Version: 3}
		})
		bulkDone <- joined
	}()
	<-fetchIn

	waiterDone := make(chan struct{})
	var wv Value
	var wCoalesced bool
	go func() {
		defer close(waiterDone)
		wv, wCoalesced, _ = fetchOne(g, "led", func() (Value, error) {
			t.Error("waiter ran its own fetch instead of joining the bulk flight")
			return Value{}, nil
		})
	}()
	waitForWaiter(t, g, "led", 1)
	close(release)
	<-waiterDone

	if joined := <-bulkDone; joined != 0 {
		t.Fatalf("bulk leader counted %d joins", joined)
	}
	if !wCoalesced {
		t.Fatal("single-key read did not coalesce onto the bulk flight")
	}
	if !bytes.Equal(wv.Data, []byte("bulk")) || wv.Version != 3 {
		t.Fatalf("waiter got %v", wv)
	}
}

// TestDoBulkErrorSharedWithWaiters: a failed bulk fetch delivers each
// key's own outcome to the waiters parked on it — the error for the key
// that failed, the value for the one beside it.
func TestDoBulkErrorSharedWithWaiters(t *testing.T) {
	g := New(Config{})
	boom := errors.New("backend down")
	fetchIn := make(chan struct{})
	release := make(chan struct{})
	bulkDone := make(chan map[string]error, 1)
	go func() {
		_, errs, _ := fetchMap(g, []string{"bad", "good"}, func(lead []string, res []Result) {
			close(fetchIn)
			<-release
			res[0].Err = boom
			res[1].Data = []byte("fine")
		})
		bulkDone <- errs
	}()
	<-fetchIn

	type outcome struct {
		v   Value
		err error
	}
	badCh := make(chan outcome, 1)
	goodCh := make(chan outcome, 1)
	for key, ch := range map[string]chan outcome{"bad": badCh, "good": goodCh} {
		go func() {
			v, _, err := fetchOne(g, key, func() (Value, error) { return Value{}, nil })
			ch <- outcome{v, err}
		}()
	}
	waitForWaiter(t, g, "bad", 1)
	waitForWaiter(t, g, "good", 1)
	close(release)

	if errs := <-bulkDone; len(errs) != 1 || errs["bad"] != boom {
		t.Fatalf("bulk errs = %v", errs)
	}
	if r := <-badCh; r.err != boom || r.v.Data != nil {
		t.Fatalf("waiter on failed key got %q, %v", r.v.Data, r.err)
	}
	if r := <-goodCh; r.err != nil || string(r.v.Data) != "fine" {
		t.Fatalf("waiter on fetched key got %q, %v", r.v.Data, r.err)
	}
}

// TestDoBulkGenerationGuard: an Invalidate between a flight's creation
// and a bulk read must prevent coalescing — the bulk read leads a fresh
// fetch so the caller's own completed write is visible.
func TestDoBulkGenerationGuard(t *testing.T) {
	g := New(Config{})
	staleIn := make(chan struct{})
	release := make(chan struct{})
	staleDone := make(chan struct{})
	go func() {
		defer close(staleDone)
		fetchOne(g, "w", func() (Value, error) {
			close(staleIn)
			<-release
			return Value{Data: []byte("stale")}, nil
		})
	}()
	<-staleIn

	// The local write completed: anything fetched before it is old news.
	g.Invalidate("w")

	var fetchCalls int32
	values, errs, joined := fetchMap(g, []string{"w"}, func(lead []string, res []Result) {
		atomic.AddInt32(&fetchCalls, 1)
		res[0].Data = []byte("fresh")
	})
	if fetchCalls != 1 {
		t.Fatalf("post-invalidate read ran fetch %d times, want a fresh lead", fetchCalls)
	}
	if joined != 0 {
		t.Fatal("read coalesced onto a flight that predates the invalidation")
	}
	if len(errs) != 0 || !bytes.Equal(values["w"].Data, []byte("fresh")) {
		t.Fatalf("values=%v errs=%v", values, errs)
	}
	close(release)
	<-staleDone
}

// TestDoBulkConcurrentStorm: many bulk readers over an overlapping key
// space must produce at most one fetch per (key, caller) — every caller
// gets every key, whichever of them it led and whichever it joined.
func TestDoBulkConcurrentStorm(t *testing.T) {
	g := New(Config{})
	const callers = 16
	keys := []string{"s0", "s1", "s2", "s3"}
	var fetches int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	perKeyLeads := make(map[string]int32)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			values, errs, _ := fetchMap(g, keys, func(lead []string, res []Result) {
				atomic.AddInt32(&fetches, 1)
				mu.Lock()
				for i, key := range lead {
					perKeyLeads[key]++
					res[i].Data = []byte("v-" + key)
				}
				mu.Unlock()
			})
			if len(errs) != 0 || len(values) != len(keys) {
				t.Errorf("storm caller: values=%d errs=%v", len(values), errs)
			}
			for _, key := range keys {
				if !bytes.Equal(values[key].Data, []byte("v-"+key)) {
					t.Errorf("storm caller: %s = %q", key, values[key].Data)
				}
			}
		}()
	}
	close(gate)
	wg.Wait()
	// Coalescing is timing-dependent, but correctness is not: every key
	// was led at least once and never more than once per caller.
	for key, n := range perKeyLeads {
		if n < 1 || n > callers {
			t.Fatalf("%s led %d times", key, n)
		}
	}
	if fetches > callers {
		t.Fatalf("%d fetch invocations for %d callers", fetches, callers)
	}
}

// TestFlightServesLedWaitersBeforeParking: a bulk read that leads one
// key and joins another serves the led key's waiters BEFORE it parks on
// its join, so readers chained through it hand results on instead of
// waiting on each other. (A literal cycle of two calls — each leading a
// key the other joins — cannot form: a call registers all its keys
// under one lock hold, so it only ever joins flights begun before it.
// What the rule protects is this chain, and a call joining its own
// flight through a repeated key, TestDoBulkDedupesKeys.) Here the read
// holding "a" is released only once the read waiting on "b" has its
// answer; parking first would hang all three.
func TestFlightServesLedWaitersBeforeParking(t *testing.T) {
	g := New(Config{})
	inA, releaseA := make(chan struct{}), make(chan struct{})
	inB, releaseB := make(chan struct{}), make(chan struct{})
	fill := func(who string, in, release chan struct{}) func(lead []string, res []Result) {
		return func(lead []string, res []Result) {
			if in != nil {
				close(in)
				<-release
			}
			for i, key := range lead {
				res[i].Data = []byte(who + ":" + key)
			}
		}
	}
	type outcome struct {
		values map[string]Value
		joined int
	}
	read := func(keys []string, fetch func(lead []string, res []Result)) chan outcome {
		done := make(chan outcome, 1)
		go func() {
			values, _, joined := fetchMap(g, keys, fetch)
			done <- outcome{values, joined}
		}()
		return done
	}
	check := func(name string, done chan outcome, joined int, want map[string]string) {
		t.Helper()
		select {
		case got := <-done:
			if got.joined != joined {
				t.Errorf("%s joined %d keys, want %d", name, got.joined, joined)
			}
			for key, v := range want {
				if string(got.values[key].Data) != v {
					t.Errorf("%s: %s = %q, want %q", name, key, got.values[key].Data, v)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never completed: a leader parked on its join before serving its waiters", name)
		}
	}

	r1 := read([]string{"a"}, fill("r1", inA, releaseA))
	<-inA
	r2 := read([]string{"b", "a"}, fill("r2", inB, releaseB)) // leads b, joins a
	<-inB
	r3 := read([]string{"b", "c"}, fill("r3", nil, nil)) // joins b, leads c
	waitForWaiter(t, g, "b", 1)
	close(releaseB)
	check("r3", r3, 1, map[string]string{"b": "r2:b", "c": "r3:c"})
	close(releaseA)
	check("r1", r1, 0, map[string]string{"a": "r1:a"})
	check("r2", r2, 1, map[string]string{"b": "r2:b", "a": "r1:a"})
}

// TestFlightWaitersShareTheLeadersBytes: a single-key waiter and a bulk
// waiter coalesced onto one fetch both receive the leader's result
// itself — one buffer, read-only, for all three.
func TestFlightWaitersShareTheLeadersBytes(t *testing.T) {
	g := New(Config{})
	in, release := make(chan struct{}), make(chan struct{})
	leader := make(chan Value, 1)
	go func() {
		v, _, _ := fetchOne(g, "k", func() (Value, error) {
			close(in)
			<-release
			return Value{Data: []byte("payload")}, nil
		})
		leader <- v
	}()
	<-in
	single := make(chan Value, 1)
	go func() {
		v, joined, _ := fetchOne(g, "k", func() (Value, error) { return Value{}, errors.New("not led") })
		if !joined {
			t.Error("single-key reader did not join")
		}
		single <- v
	}()
	bulk := make(chan Value, 1)
	go func() {
		values, _, joined := fetchMap(g, []string{"z", "k"}, func(lead []string, res []Result) {
			res[0].Data = []byte("z")
		})
		if joined != 1 {
			t.Errorf("bulk reader joined %d keys, want 1", joined)
		}
		bulk <- values["k"]
	}()
	waitForWaiter(t, g, "k", 2)
	close(release)

	got := []Value{<-leader, <-single, <-bulk}
	for i, v := range got {
		if string(v.Data) != "payload" {
			t.Fatalf("result %d = %q, want \"payload\"", i, v.Data)
		}
		if &v.Data[0] != &got[0].Data[0] {
			t.Errorf("result %d is a copy, not the leader's bytes", i)
		}
	}
}

// waitForWaiter polls until key's in-flight fetch has n parked waiters.
func waitForWaiter(t *testing.T, g *Cache, key string, n int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		g.mu.Lock()
		f := g.flights[key]
		waiters := 0
		if f != nil {
			waiters = len(f.waiters)
		}
		g.mu.Unlock()
		if waiters >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("flight %q never accumulated %d waiters", key, n)
}

// TestFetchLeadAllocations: a Fetch that leads every key allocates
// nothing — each led key's flight lives in the caller's Result.
func TestFetchLeadAllocations(t *testing.T) {
	g := New(Config{})
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("lead-%d", i)
	}
	res := make([]Result, len(keys))
	data := []byte("v")
	fetch := func(lead []string) {
		for i := range lead {
			res[i].Data = data
		}
	}
	for _, n := range []int{1, len(keys)} {
		if got := testing.AllocsPerRun(1000, func() {
			if joined := g.Fetch(keys[:n], res[:n], fetch); joined != 0 {
				t.Fatalf("joined %d keys with no other reader", joined)
			}
		}); got != 0 {
			t.Errorf("Fetch leading %d keys: %v allocations, want 0", n, got)
		}
	}
}

// TestLeaderReusesResultAtOnce: a led key's flight lives in its
// leader's Result, which the leader may reuse as soon as Fetch returns.
// Every reader here scribbles over its Result the moment Fetch returns,
// while the others keep joining the same key: each must still receive
// what a leader fetched, never a scribble, and under -race no joiner may
// touch a slot its leader reused. Afterwards no flight is registered,
// so the next Fetch leads a fresh one.
func TestLeaderReusesResultAtOnce(t *testing.T) {
	g := New(Config{})
	const readers, rounds = 8, 500
	var joins atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var keys [1]string
			var res [1]Result
			for i := 0; i < rounds; i++ {
				keys[0] = "hot"
				joins.Add(int64(g.Fetch(keys[:], res[:], func([]string) {
					runtime.Gosched() // let the other readers join
					res[0].Value, res[0].Err = Value{Data: []byte("fetched"), Version: 7}, nil
				})))
				if string(res[0].Data) != "fetched" || res[0].Version != 7 || res[0].Err != nil {
					t.Errorf("read %q v%d, %v; want what a leader fetched", res[0].Data, res[0].Version, res[0].Err)
					return
				}
				res[0] = Result{Value: Value{Data: []byte("scribble"), Version: 666}, Err: errors.New("reused")}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("readers hung: a joiner parked on a flight its leader had already served")
	}
	if joins.Load() == 0 {
		t.Fatal("no reader ever joined another's fetch")
	}
	g.mu.Lock()
	left := len(g.flights)
	g.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d flights still registered after every Fetch returned", left)
	}
	if _, joined, _ := fetchOne(g, "hot", func() (Value, error) { return Value{Data: []byte("fresh")}, nil }); joined {
		t.Fatal("a Fetch after the storm joined a finished flight")
	}
}
