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
// and retries. The background daemon (internal/scrub) then moves
// chunks whose placement changed between two views at a rate budget.
package membership

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"ecstore/internal/hashring"
)

// ErrBadView is returned for views that fail structural validation.
var ErrBadView = errors.New("membership: invalid view")

// View is one epoch of cluster membership: the sorted server set that
// was current while Epoch was the cluster's epoch. Views are immutable
// once built; derive changed views with WithAdded/WithRemoved.
type View struct {
	// Epoch numbers this view. Higher epochs supersede lower ones;
	// epoch 0 is reserved for "epoch-unaware" and never names a view.
	Epoch uint64 `json:"epoch"`
	// Servers is the sorted, de-duplicated server address list.
	Servers []string `json:"servers"`
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
	return View{Epoch: v.Epoch + 1, Servers: normalize(append(slices.Clone(v.Servers), addr))}
}

// WithRemoved derives the next epoch's view with addr departed.
func (v View) WithRemoved(addr string) View {
	kept := make([]string, 0, len(v.Servers))
	for _, s := range v.Servers {
		if s != addr {
			kept = append(kept, s)
		}
	}
	return View{Epoch: v.Epoch + 1, Servers: kept}
}

// Equal reports whether two views are identical (epoch and servers).
func (v View) Equal(o View) bool {
	return v.Epoch == o.Epoch && slices.Equal(v.Servers, o.Servers)
}

// Validate checks structural invariants: a non-zero epoch and a
// non-empty, sorted, duplicate-free server list.
func (v View) Validate() error {
	if v.Epoch == 0 {
		return fmt.Errorf("%w: epoch 0", ErrBadView)
	}
	if len(v.Servers) == 0 {
		return fmt.Errorf("%w: empty server set", ErrBadView)
	}
	for i, s := range v.Servers {
		if s == "" {
			return fmt.Errorf("%w: empty server address", ErrBadView)
		}
		if i > 0 && v.Servers[i-1] >= s {
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

// String renders "epoch N: [servers]" for logs and kvcli ring status.
func (v View) String() string {
	return fmt.Sprintf("epoch %d: %v", v.Epoch, v.Servers)
}

// state pairs a view with its materialized hashring so placement
// lookups never rebuild the ring.
type state struct {
	view View
	ring *hashring.Ring
}

// Tracker holds a party's current view and its per-epoch hashring
// behind one atomic pointer: placement reads are wait-free, and Adopt
// installs a strictly-newer view (with its pre-built ring) in one
// swap. The zero Tracker is unusable; construct with NewTracker.
type Tracker struct {
	vnodes int
	cur    atomic.Pointer[state]
	// onChange, when set, observes every successful adoption with the
	// previous and the new view. Used by auto-migration hooks.
	onChange atomic.Pointer[func(old, new View)]
}

// NewTracker returns a tracker seeded with view. vnodes <= 0 uses the
// hashring default.
func NewTracker(view View, vnodes int) *Tracker {
	t := &Tracker{vnodes: vnodes}
	t.cur.Store(&state{view: view, ring: hashring.Build(vnodes, view.Servers)})
	return t
}

// Current returns the tracker's view.
func (t *Tracker) Current() View { return t.cur.Load().view }

// Epoch returns the tracker's current epoch.
func (t *Tracker) Epoch() uint64 { return t.cur.Load().view.Epoch }

// Ring returns the hashring materialized for the current view.
func (t *Tracker) Ring() *hashring.Ring { return t.cur.Load().ring }

// Snapshot returns the current view and its ring as one consistent
// pair — callers that resolve placement and stamp the epoch must take
// both from the same load or a concurrent Adopt could split them.
func (t *Tracker) Snapshot() (View, *hashring.Ring) {
	s := t.cur.Load()
	return s.view, s.ring
}

// Adopt installs view iff it is strictly newer than the current one
// and reports whether it was installed. Concurrent adopters race
// safely: whichever newest view lands last wins, and stale proposals
// lose the CAS and return false.
func (t *Tracker) Adopt(view View) bool {
	if err := view.Validate(); err != nil {
		return false
	}
	next := &state{view: view, ring: hashring.Build(t.vnodes, view.Servers)}
	for {
		cur := t.cur.Load()
		if view.Epoch <= cur.view.Epoch {
			return false
		}
		if t.cur.CompareAndSwap(cur, next) {
			if fn := t.onChange.Load(); fn != nil {
				(*fn)(cur.view, view)
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
