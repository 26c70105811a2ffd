// Package hashring implements the ketama-style consistent hashing ring
// used by Memcached clients to map keys to servers. The paper's chunk
// placement builds on it: the designated primary server for a key is
// the ring successor of the key's hash, and the K+M erasure-coded
// chunks (or the F replicas) go to the primary plus the next N-1
// distinct servers in the server list (Section IV-A).
package hashring

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the number of points each server contributes
// to the ring, chosen to keep the load spread within a few percent.
const DefaultVirtualNodes = 160

// Ring is a consistent hashing ring. It is safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	vnodes   int
	points   []point  // sorted by hash
	members  []string // sorted member names
	memberAt map[string]bool
}

type point struct {
	hash   uint64
	member string
}

// New returns an empty ring with the given number of virtual nodes per
// member (DefaultVirtualNodes if vnodes <= 0).
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, memberAt: make(map[string]bool)}
}

// Build returns a ring populated with members in one shot, sorting the
// point set once instead of once per member. The membership layer uses
// it to materialize a per-epoch ring from a view's server list.
func Build(vnodes int, members []string) *Ring {
	r := New(vnodes)
	for _, m := range members {
		if r.memberAt[m] {
			continue
		}
		r.memberAt[m] = true
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, point{
				hash:   hashKey(fmt.Sprintf("%s#%d", m, i)),
				member: m,
			})
		}
		r.members = append(r.members, m)
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	sort.Strings(r.members)
	return r
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	// FNV alone has weak avalanche on the final bytes, so sequential
	// keys ("key-1", "key-2", ...) would cluster into one ring gap
	// and share a primary; the splitmix64 finalizer restores uniform
	// spread.
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.memberAt[member] {
		return
	}
	r.memberAt[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{
			hash:   hashKey(fmt.Sprintf("%s#%d", member, i)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.members = append(r.members, member)
	sort.Strings(r.members)
}

// Remove deletes a member. Removing an unknown member is a no-op.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.memberAt[member] {
		return
	}
	delete(r.memberAt, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
	for i, m := range r.members {
		if m == member {
			r.members = append(r.members[:i], r.members[i+1:]...)
			break
		}
	}
}

// Members returns the sorted member list.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Len returns the number of members.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Get returns the member owning key (the ring successor of the key's
// hash) and false if the ring is empty.
func (r *Ring) Get(key string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.successor(hashKey(key))].member, true
}

// successor returns the index of the first point with hash >= h,
// wrapping to 0.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// GetN returns n distinct members for key: the primary owner followed
// by the next n-1 distinct servers walking the ring, the placement the
// paper uses to house the K data and M parity chunks. If the ring has
// fewer than n members, every member is returned (primary first).
func (r *Ring) GetN(key string, n int) []string {
	if n <= 0 {
		return nil
	}
	if out := r.AppendN(make([]string, 0, n), key, n); len(out) > 0 {
		return out
	}
	return nil
}

// AppendN is GetN appending to dst: it appends key's n distinct members
// (every member, primary first, on a ring of fewer) and returns the
// extended slice. A caller resolving many keys passes one backing slice
// for all of them instead of a slice per key.
func (r *Ring) AppendN(dst []string, key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return dst
	}
	base := len(dst)
	n = base + min(n, len(r.members))
	start := r.successor(hashKey(key))
	for i := 0; len(dst) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(dst[base:], p.member) {
			dst = append(dst, p.member)
		}
	}
	return dst
}
