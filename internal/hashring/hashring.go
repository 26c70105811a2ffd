// Package hashring implements the ketama-style consistent hashing ring
// used by Memcached clients to map keys to servers. The paper's chunk
// placement builds on it: the designated primary server for a key is
// the ring successor of the key's hash, and the K+M erasure-coded
// chunks (or the F replicas) go to the primary plus the next N-1
// distinct servers in the server list (Section IV-A).
//
// A Ring is immutable: Build fixes its member set, and a membership
// change builds a new ring (membership.Rings holds one per server list
// a view names). Lookups therefore take no lock.
package hashring

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// DefaultVirtualNodes is the number of points each server contributes
// to the ring, chosen to keep the load spread within a few percent.
const DefaultVirtualNodes = 160

// Ring is a consistent hashing ring over one member set. It has no
// mutable state, so any number of goroutines may read it.
type Ring struct {
	points  []point // sorted by hash
	members int     // distinct members
}

type point struct {
	hash   uint64
	member string
}

// Build returns the ring of members — a member listed twice counts once
// — with vnodes points per member (DefaultVirtualNodes if vnodes <= 0).
// The placement depends on the member set alone, not on its order.
func Build(vnodes int, members []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if seen[m] {
			continue
		}
		seen[m] = true
		r.members++
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{
				hash:   hashKey(fmt.Sprintf("%s#%d", m, i)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
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

// successor returns the index of the first point with hash >= h,
// wrapping to 0.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// GetN returns n distinct members for key: the primary owner (the ring
// successor of the key's hash) followed by the next n-1 distinct
// servers walking the ring, the placement the paper uses to house the K
// data and M parity chunks. If the ring has fewer than n members, every
// member is returned (primary first); nil on an empty ring or n <= 0.
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
	if len(r.points) == 0 || n <= 0 {
		return dst
	}
	base := len(dst)
	n = base + min(n, r.members)
	start := r.successor(hashKey(key))
	for i := 0; len(dst) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(dst[base:], p.member) {
			dst = append(dst, p.member)
		}
	}
	return dst
}
