// Package membership implements the versioned cluster view that lets
// clients and servers agree on chunk placement while the server set
// changes under live traffic (DESIGN §13, ROADMAP item 1).
//
// A View is an epoch-numbered server list. Epochs are totally ordered:
// every membership change (add, remove) derives a new view with
// epoch+1, and every party — client or server — holds exactly one
// current view in a Tracker and adopts a pushed or fetched view iff it
// is strictly newer. Data requests are stamped with the sender's epoch
// (wire.Request.Epoch); a server whose epoch differs answers
// wire.StatusWrongEpoch carrying its encoded view, and the client
// refreshes, re-resolves placement against the new per-epoch hashring,
// and retries. A view also lists the server sets of the rings it is
// still draining: every membership change appends the outgoing set, the
// read and convergence paths use those placements as further sources,
// and the background daemon (internal/scrub) clears the list with the
// next epoch once a pass has converged every key.
package membership

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"ecstore/internal/hashring"
)

// ErrBadView is returned for views that fail structural validation.
var ErrBadView = errors.New("membership: invalid view")

// View is one epoch of cluster membership: the sorted server set that
// was current while Epoch was the cluster's epoch, and the server sets
// of the earlier rings whose placements may still hold data. Views are
// immutable once built; derive changed views with WithAdded,
// WithRemoved and Drained.
type View struct {
	// Epoch numbers this view. Higher epochs supersede lower ones;
	// epoch 0 is reserved for "epoch-unaware" and never names a view.
	Epoch uint64 `json:"epoch"`
	// Servers is the sorted, de-duplicated server address list.
	Servers []string `json:"servers"`
	// Draining holds the server lists (each sorted, de-duplicated) of
	// the rings this view is still draining from, oldest first. Empty in
	// a steady state, when the encoding omits it.
	Draining [][]string `json:"draining,omitempty"`
}

// NewView builds the epoch-1 view from a seed server list (sorted,
// de-duplicated). It is how a freshly started server or client enters
// the protocol before learning anything newer.
func NewView(servers []string) View {
	return View{Epoch: 1, Servers: normalize(servers)}
}

// normalize sorts and de-duplicates a server list, dropping empties.
func normalize(servers []string) []string {
	out := make([]string, 0, len(servers))
	for _, s := range servers {
		if s != "" {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Contains reports whether addr is a member of the view.
func (v View) Contains(addr string) bool {
	_, ok := slices.BinarySearch(v.Servers, addr)
	return ok
}

// WithAdded derives the next epoch's view with addr joined. Adding an
// existing member still advances the epoch (the caller asked for a
// transition; an idempotent no-op epoch would desynchronize admin
// retries from migrations).
func (v View) WithAdded(addr string) View {
	return v.next(normalize(append(slices.Clone(v.Servers), addr)))
}

// WithRemoved derives the next epoch's view with addr departed.
func (v View) WithRemoved(addr string) View {
	kept := make([]string, 0, len(v.Servers))
	for _, s := range v.Servers {
		if s != addr {
			kept = append(kept, s)
		}
	}
	return v.next(kept)
}

// next derives the next epoch's view placing by servers. It drains
// everything v drains plus v's own servers, except a set equal to
// servers (its placement is the current one) or listed already.
func (v View) next(servers []string) View {
	n := View{Epoch: v.Epoch + 1, Servers: servers}
	for _, ring := range append(slices.Clone(v.Draining), v.Servers) {
		if !slices.Equal(ring, servers) && !slices.ContainsFunc(n.Draining, func(d []string) bool { return slices.Equal(d, ring) }) {
			n.Draining = append(n.Draining, ring)
		}
	}
	return n
}

// Drained derives the next epoch's view with v's servers and no
// draining ring: what the background daemon publishes once a pass has
// converged every key of v.
func (v View) Drained() View {
	return View{Epoch: v.Epoch + 1, Servers: v.Servers}
}

// AllServers returns every server v names, current or draining, sorted
// and de-duplicated: the servers that may hold data under v.
func (v View) AllServers() []string {
	all := slices.Clone(v.Servers)
	for _, ring := range v.Draining {
		all = append(all, ring...)
	}
	return normalize(all)
}

// Equal reports whether two views are identical (epoch, servers and
// draining rings).
func (v View) Equal(o View) bool {
	return v.Epoch == o.Epoch && slices.Equal(v.Servers, o.Servers) &&
		slices.EqualFunc(v.Draining, o.Draining, slices.Equal[[]string])
}

// Validate checks structural invariants: a non-zero epoch, and a
// non-empty, sorted, duplicate-free server list for the current ring
// and for every draining one.
func (v View) Validate() error {
	if v.Epoch == 0 {
		return fmt.Errorf("%w: epoch 0", ErrBadView)
	}
	if err := validServers(v.Servers); err != nil {
		return err
	}
	for _, ring := range v.Draining {
		if err := validServers(ring); err != nil {
			return fmt.Errorf("draining ring: %w", err)
		}
	}
	return nil
}

// validServers checks one ring's server list: non-empty, sorted,
// duplicate-free, no empty address.
func validServers(servers []string) error {
	if len(servers) == 0 {
		return fmt.Errorf("%w: empty server set", ErrBadView)
	}
	for i, s := range servers {
		if s == "" {
			return fmt.Errorf("%w: empty server address", ErrBadView)
		}
		if i > 0 && servers[i-1] >= s {
			return fmt.Errorf("%w: servers not sorted/unique", ErrBadView)
		}
	}
	return nil
}

// Encode serializes the view for the OpRingGet/OpRingUpdate payloads
// and the StatusWrongEpoch response value. JSON keeps the admin path
// debuggable; membership frames are rare and tiny, so compactness does
// not matter the way data frames do.
func (v View) Encode() []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// A View holds only integers and strings; Marshal cannot fail.
		panic(err)
	}
	return b
}

// Decode parses an encoded view and validates it. Hostile or corrupt
// payloads come back as ErrBadView, never a panic.
func Decode(b []byte) (View, error) {
	var v View
	if err := json.Unmarshal(b, &v); err != nil {
		return View{}, fmt.Errorf("%w: %v", ErrBadView, err)
	}
	if err := v.Validate(); err != nil {
		return View{}, err
	}
	return v, nil
}

// String renders "epoch N: [servers]", followed by " draining
// [[servers] ...]" while the view drains, for logs and kvcli ring
// status.
func (v View) String() string {
	if len(v.Draining) > 0 {
		return fmt.Sprintf("epoch %d: %v draining %v", v.Epoch, v.Servers, v.Draining)
	}
	return fmt.Sprintf("epoch %d: %v", v.Epoch, v.Servers)
}

// Rings pairs a view with its materialized hashrings — Current for its
// servers, Draining one per draining ring in the view's order — so
// placement lookups never rebuild a ring.
type Rings struct {
	View     View
	Current  *hashring.Ring
	Draining []*hashring.Ring
	// Since is the first epoch of the run of views, ending in View, that
	// all place by View.Servers: a view that only clears its draining
	// rings (Drained) changes no placement.
	Since uint64
	// adopted is when the tracker installed View.
	adopted time.Time
}

// placementGrace is how long after adopting a view the epoch gate still
// accepts an earlier epoch of the same placement (Tracker.Places): long
// enough for every round in flight across the change to land, short
// enough that a client still on the earlier view learns the new one at
// its next request.
const placementGrace = time.Second

// buildRings materializes view's hashrings, reusing prev's (nil: none)
// for every server list prev already built one for: a membership change
// drains the previous view's rings, so an adoption builds one new ring.
func buildRings(view View, prev *Rings) *Rings {
	ring := func(servers []string) *hashring.Ring {
		if prev != nil {
			if slices.Equal(servers, prev.View.Servers) {
				return prev.Current
			}
			if i := slices.IndexFunc(prev.View.Draining, func(d []string) bool { return slices.Equal(d, servers) }); i >= 0 {
				return prev.Draining[i]
			}
		}
		return hashring.Build(hashring.DefaultVirtualNodes, servers)
	}
	r := &Rings{View: view, Current: ring(view.Servers), Since: view.Epoch, adopted: time.Now()}
	for _, servers := range view.Draining {
		r.Draining = append(r.Draining, ring(servers))
	}
	return r
}

// Tracker holds a party's current view and its per-epoch hashrings
// behind one atomic pointer. The rings are immutable values, built once
// per server list, so placement reads are wait-free and take no lock,
// and Adopt installs a strictly-newer view (with its pre-built rings)
// in one swap. The zero Tracker is unusable; construct with NewTracker.
type Tracker struct {
	cur atomic.Pointer[Rings]
	// onChange, when set, observes every successful adoption with the
	// previous and the new view. The background daemon hooks it.
	onChange atomic.Pointer[func(old, new View)]
}

// NewTracker returns a tracker seeded with view.
func NewTracker(view View) *Tracker {
	t := &Tracker{}
	t.cur.Store(buildRings(view, nil))
	return t
}

// Current returns the tracker's view.
func (t *Tracker) Current() View { return t.cur.Load().View }

// Epoch returns the tracker's current epoch.
func (t *Tracker) Epoch() uint64 { return t.cur.Load().View.Epoch }

// Places reports whether a request stamped with epoch was placed by
// the current view's servers: epoch is current, or — within
// placementGrace of the adoption — an earlier epoch of the same
// placement (Rings.Since). The epoch gate accepts it: only draining
// rings changed in between, and the clear that ends a drain must not
// split the rounds in flight across it (a CAS landed at the servers the
// push has not reached yet and rejected at the rest unwinds, and the
// unwind loses the old stripe where the new one landed).
func (t *Tracker) Places(epoch uint64) bool { return t.placesAt(epoch, time.Now) }

func (t *Tracker) placesAt(epoch uint64, now func() time.Time) bool {
	s := t.cur.Load()
	return epoch == s.View.Epoch ||
		epoch >= s.Since && epoch < s.View.Epoch && now().Sub(s.adopted) < placementGrace
}

// Rings returns the current view with all its hashrings, draining ones
// included, as one consistent load — callers that resolve placement
// and stamp the epoch must take both from the same load or a concurrent
// Adopt could split them. The result is shared: read only.
func (t *Tracker) Rings() *Rings { return t.cur.Load() }

// Adopt installs view iff it is strictly newer than the current one
// and reports whether it was installed. Concurrent adopters race
// safely: whichever newest view lands last wins, and stale proposals
// lose the CAS and return false.
func (t *Tracker) Adopt(view View) bool {
	if err := view.Validate(); err != nil {
		return false
	}
	var next *Rings
	for {
		cur := t.cur.Load()
		if view.Epoch <= cur.View.Epoch {
			return false
		}
		if next == nil {
			next = buildRings(view, cur)
		}
		next.Since = view.Epoch
		if slices.Equal(view.Servers, cur.View.Servers) {
			next.Since = cur.Since
		}
		if t.cur.CompareAndSwap(cur, next) {
			if fn := t.onChange.Load(); fn != nil {
				(*fn)(cur.View, view)
			}
			return true
		}
	}
}

// OnChange registers fn to run after every successful Adopt with the
// replaced and the adopted view. One observer; later calls replace
// earlier ones. fn runs on the adopter's goroutine — keep it quick or
// hand off.
func (t *Tracker) OnChange(fn func(old, new View)) {
	t.onChange.Store(&fn)
}
