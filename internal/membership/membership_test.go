package membership

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewViewNormalizes(t *testing.T) {
	v := NewView([]string{"c:1", "a:1", "b:1", "a:1", ""})
	if v.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", v.Epoch)
	}
	want := []string{"a:1", "b:1", "c:1"}
	if len(v.Servers) != len(want) {
		t.Fatalf("servers = %v, want %v", v.Servers, want)
	}
	for i, s := range want {
		if v.Servers[i] != s {
			t.Fatalf("servers = %v, want %v", v.Servers, want)
		}
	}
}

func TestContains(t *testing.T) {
	v := NewView([]string{"a:1", "b:1"})
	if !v.Contains("a:1") || !v.Contains("b:1") {
		t.Fatal("members not found")
	}
	if v.Contains("c:1") || v.Contains("") {
		t.Fatal("non-members reported present")
	}
}

func TestWithAddedAdvancesEpoch(t *testing.T) {
	v := NewView([]string{"a:1"})
	v2 := v.WithAdded("b:1")
	if v2.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", v2.Epoch)
	}
	if !v2.Contains("b:1") || !v2.Contains("a:1") {
		t.Fatalf("servers = %v", v2.Servers)
	}
	// Adding an existing member still advances the epoch — the admin
	// asked for a transition, and retried admin commands must not
	// desync from migrations.
	v3 := v2.WithAdded("b:1")
	if v3.Epoch != 3 {
		t.Fatalf("idempotent add epoch = %d, want 3", v3.Epoch)
	}
	if len(v3.Servers) != 2 {
		t.Fatalf("idempotent add duplicated the member: %v", v3.Servers)
	}
	// Deriving must not mutate the parent view.
	if v.Epoch != 1 || len(v.Servers) != 1 {
		t.Fatalf("parent view mutated: %v", v)
	}
}

func TestWithRemoved(t *testing.T) {
	v := NewView([]string{"a:1", "b:1", "c:1"})
	v2 := v.WithRemoved("b:1")
	if v2.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", v2.Epoch)
	}
	if v2.Contains("b:1") || len(v2.Servers) != 2 {
		t.Fatalf("servers = %v", v2.Servers)
	}
	// Removing a non-member still advances the epoch but keeps the set.
	v3 := v2.WithRemoved("zz:1")
	if v3.Epoch != 3 || len(v3.Servers) != 2 {
		t.Fatalf("remove non-member: %v", v3)
	}
}

func TestEqual(t *testing.T) {
	a := NewView([]string{"a:1", "b:1"})
	b := NewView([]string{"a:1", "b:1"})
	if !a.Equal(b) {
		t.Fatal("identical views not Equal")
	}
	if a.Equal(a.WithAdded("c:1")) {
		t.Fatal("different epochs Equal")
	}
	if a.Equal(View{Epoch: 1, Servers: []string{"a:1"}}) {
		t.Fatal("different server sets Equal")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		v    View
		ok   bool
	}{
		{"good", View{Epoch: 3, Servers: []string{"a:1", "b:1"}}, true},
		{"epoch zero", View{Epoch: 0, Servers: []string{"a:1"}}, false},
		{"empty set", View{Epoch: 1, Servers: nil}, false},
		{"empty addr", View{Epoch: 1, Servers: []string{""}}, false},
		{"unsorted", View{Epoch: 1, Servers: []string{"b:1", "a:1"}}, false},
		{"duplicate", View{Epoch: 1, Servers: []string{"a:1", "a:1"}}, false},
		{"draining", View{Epoch: 2, Servers: []string{"a:1", "b:1"}, Draining: [][]string{{"a:1"}, {"b:1", "c:1"}}}, true},
		{"draining empty ring", View{Epoch: 2, Servers: []string{"a:1"}, Draining: [][]string{{}}}, false},
		{"draining nil ring", View{Epoch: 2, Servers: []string{"a:1"}, Draining: [][]string{nil}}, false},
		{"draining empty addr", View{Epoch: 2, Servers: []string{"a:1"}, Draining: [][]string{{""}}}, false},
		{"draining unsorted", View{Epoch: 2, Servers: []string{"a:1"}, Draining: [][]string{{"b:1", "a:1"}}}, false},
		{"draining duplicate", View{Epoch: 2, Servers: []string{"a:1"}, Draining: [][]string{{"a:1"}, {"b:1", "b:1"}}}, false},
	}
	for _, tc := range cases {
		err := tc.v.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want failure", tc.name)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	v := View{Epoch: 42, Servers: []string{"a:1", "b:1", "c:1"}}
	got, err := Decode(v.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.Equal(v) {
		t.Fatalf("round trip: got %v, want %v", got, v)
	}
}

func TestDecodeRejectsBadPayloads(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not json"),
		[]byte(`{"epoch":0,"servers":["a:1"]}`),
		[]byte(`{"epoch":1,"servers":[]}`),
		[]byte(`{"epoch":1,"servers":["b:1","a:1"]}`),
		// The draining rings arrive from outside too (OpRingUpdate).
		[]byte(`{"epoch":2,"servers":["a:1"],"draining":[[]]}`),
		[]byte(`{"epoch":2,"servers":["a:1"],"draining":[null]}`),
		[]byte(`{"epoch":2,"servers":["a:1"],"draining":[[""]]}`),
		[]byte(`{"epoch":2,"servers":["a:1"],"draining":[["b:1","a:1"]]}`),
		[]byte(`{"epoch":2,"servers":["a:1"],"draining":[["a:1","a:1"]]}`),
		[]byte(`{"epoch":2,"servers":["a:1"],"draining":["a:1"]}`),
		[]byte(`{"epoch":2,"servers":["a:1"],"draining":"a:1"}`),
	}
	for _, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%q) accepted a bad payload", b)
		}
	}
}

// TestDrainingRings: every membership change drains the outgoing
// server list (and whatever the view it replaces still drained, each
// list once, none equal to the new current one), Drained clears the
// list with the next epoch, a steady view encodes exactly as it did
// before views could drain, and a draining one round-trips.
func TestDrainingRings(t *testing.T) {
	v1 := NewView([]string{"a:1", "b:1"})
	v2 := v1.WithAdded("c:1")
	if want := [][]string{{"a:1", "b:1"}}; !slices.EqualFunc(v2.Draining, want, slices.Equal[[]string]) {
		t.Fatalf("join drains %v, want %v", v2.Draining, want)
	}
	v3 := v2.WithRemoved("a:1")
	if want := [][]string{{"a:1", "b:1"}, {"a:1", "b:1", "c:1"}}; !slices.EqualFunc(v3.Draining, want, slices.Equal[[]string]) {
		t.Fatalf("second change drains %v, want %v", v3.Draining, want)
	}
	if v4 := v3.WithAdded("a:1"); len(v4.Draining) != 2 || !slices.Equal(v4.Draining[1], []string{"b:1", "c:1"}) {
		t.Fatalf("re-adding a server drains %v: the ring now current must leave the list", v4.Draining)
	}
	if got, want := v3.AllServers(), []string{"a:1", "b:1", "c:1"}; !slices.Equal(got, want) {
		t.Fatalf("AllServers = %v, want %v", got, want)
	}
	drained := v3.Drained()
	if drained.Epoch != v3.Epoch+1 || !slices.Equal(drained.Servers, v3.Servers) || len(drained.Draining) != 0 {
		t.Fatalf("Drained = %v", drained)
	}
	if v3.Equal(View{Epoch: v3.Epoch, Servers: v3.Servers}) {
		t.Fatal("views differing only in draining rings are Equal")
	}
	if !strings.Contains(v3.String(), "draining") || strings.Contains(drained.String(), "draining") {
		t.Fatalf("String: %q / %q", v3, drained)
	}

	if got, want := string(drained.Encode()), `{"epoch":4,"servers":["b:1","c:1"]}`; got != want {
		t.Fatalf("steady view encodes as %s, want %s", got, want)
	}
	got, err := Decode(v3.Encode())
	if err != nil || !got.Equal(v3) {
		t.Fatalf("draining round trip: %v, %v", got, err)
	}
}

// TestTrackerDrainingRings: the tracker builds a ring per draining
// list, and for placementGrace after a clear — which changes no
// placement — accepts the earlier epochs of the same placement, but
// never an epoch before the last server change or after its own.
func TestTrackerDrainingRings(t *testing.T) {
	v1 := NewView([]string{"a:1", "b:1"})
	tr := NewTracker(v1)
	v2 := v1.WithAdded("c:1")
	tr.Adopt(v2)
	r := tr.Rings()
	if len(r.Draining) != 1 || r.Draining[0].GetN("k", 3)[0] == "c:1" || r.Since != 2 {
		t.Fatalf("rings of %v: %d draining, since %d", v2, len(r.Draining), r.Since)
	}
	tr.Adopt(v2.Drained())
	for epoch, want := range map[uint64]bool{1: false, 2: true, 3: true, 4: false} {
		if got := tr.Places(epoch); got != want {
			t.Errorf("Places(%d) = %v at %v, want %v", epoch, got, tr.Current(), want)
		}
	}
	later := func() time.Time { return time.Now().Add(placementGrace) }
	if !tr.placesAt(3, later) || tr.placesAt(2, later) {
		t.Errorf("after the grace: Places(3) = %v, Places(2) = %v", tr.placesAt(3, later), tr.placesAt(2, later))
	}
	if len(tr.Rings().Draining) != 0 {
		t.Fatalf("drained view kept %d rings", len(tr.Rings().Draining))
	}
}

func TestString(t *testing.T) {
	s := View{Epoch: 7, Servers: []string{"a:1"}}.String()
	if !strings.Contains(s, "7") || !strings.Contains(s, "a:1") {
		t.Fatalf("String() = %q", s)
	}
}

func TestTrackerAdoptOrdering(t *testing.T) {
	v1 := NewView([]string{"a:1", "b:1"})
	tr := NewTracker(v1)
	if tr.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", tr.Epoch())
	}

	v2 := v1.WithAdded("c:1")
	if !tr.Adopt(v2) {
		t.Fatal("strictly newer view rejected")
	}
	if tr.Epoch() != 2 {
		t.Fatalf("epoch = %d after adopt, want 2", tr.Epoch())
	}
	// Same epoch and older epoch must be rejected.
	if tr.Adopt(v2) {
		t.Fatal("same-epoch view adopted")
	}
	if tr.Adopt(v1) {
		t.Fatal("older view adopted")
	}
	// Invalid views must be rejected regardless of epoch.
	if tr.Adopt(View{Epoch: 99, Servers: nil}) {
		t.Fatal("invalid view adopted")
	}
	if !tr.Current().Equal(v2) {
		t.Fatalf("current = %v, want %v", tr.Current(), v2)
	}
}

func TestTrackerRingFollowsView(t *testing.T) {
	v1 := NewView([]string{"a:1"})
	tr := NewTracker(v1)
	if got := tr.Rings().Current.GetN("anything", 1); len(got) != 1 || got[0] != "a:1" {
		t.Fatalf("lookup = %v", got)
	}
	tr.Adopt(v1.WithAdded("b:1").WithRemoved("a:1"))
	if got := tr.Rings().Current.GetN("anything", 1); len(got) != 1 || got[0] != "b:1" {
		t.Fatalf("lookup after adopt = %v", got)
	}
}

func TestTrackerSnapshotConsistency(t *testing.T) {
	tr := NewTracker(NewView([]string{"a:1"}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		v := tr.Current()
		for i := 0; i < 100; i++ {
			v = v.WithAdded(fmt.Sprintf("s%03d:1", i))
			tr.Adopt(v)
		}
	}()
	for i := 0; i < 1000; i++ {
		r := tr.Rings()
		view, ring := r.View, r.Current
		// The ring must be the one materialized for exactly this view:
		// every member the ring places must be in the view.
		for _, addr := range ring.GetN("probe", 3) {
			if !view.Contains(addr) {
				t.Fatalf("snapshot split: ring placed %s outside view %v", addr, view)
			}
		}
	}
	<-done
}

func TestTrackerConcurrentAdopt(t *testing.T) {
	base := NewView([]string{"a:1"})
	tr := NewTracker(base)
	const adopters = 8
	var wg sync.WaitGroup
	for g := 0; g < adopters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := base
			for i := 0; i < 50; i++ {
				v = v.WithAdded(fmt.Sprintf("g%d-%d:1", g, i))
				tr.Adopt(v)
			}
		}(g)
	}
	wg.Wait()
	// Every adopter derived 50 epochs from the same base, so the
	// winning view has epoch base+50; the tracker must hold a valid
	// view at that epoch.
	if tr.Epoch() != base.Epoch+50 {
		t.Fatalf("epoch = %d, want %d", tr.Epoch(), base.Epoch+50)
	}
	if err := tr.Current().Validate(); err != nil {
		t.Fatalf("final view invalid: %v", err)
	}
}

func TestTrackerOnChange(t *testing.T) {
	v1 := NewView([]string{"a:1"})
	tr := NewTracker(v1)
	var mu sync.Mutex
	var olds, news []uint64
	tr.OnChange(func(old, new View) {
		mu.Lock()
		defer mu.Unlock()
		olds = append(olds, old.Epoch)
		news = append(news, new.Epoch)
	})
	v2 := v1.WithAdded("b:1")
	v3 := v2.WithAdded("c:1")
	tr.Adopt(v2)
	tr.Adopt(v2) // rejected: no callback
	tr.Adopt(v3)
	mu.Lock()
	defer mu.Unlock()
	if len(olds) != 2 || olds[0] != 1 || news[0] != 2 || olds[1] != 2 || news[1] != 3 {
		t.Fatalf("callbacks: olds=%v news=%v", olds, news)
	}
}
