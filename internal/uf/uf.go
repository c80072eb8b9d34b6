// Package uf implements a union-find (disjoint-set) structure with
// union-by-rank and path compression, the structure the paper uses to
// collapse strongly connected components of the constraint graph (§5.1:
// "cycles ... are collapsed using a union-find data structure with both
// union-by-rank and path compression heuristics").
package uf

import "sync/atomic"

// UF is a disjoint-set forest over the elements 0..n-1.
type UF struct {
	parent []uint32
	rank   []uint8
	sets   int
}

// New returns a union-find over n singleton sets.
func New(n int) *UF {
	u := &UF{
		parent: make([]uint32, n),
		rank:   make([]uint8, n),
		sets:   n,
	}
	for i := range u.parent {
		u.parent[i] = uint32(i)
	}
	return u
}

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Grow extends the universe to n elements, adding fresh singleton sets for
// ids len..n-1. Existing sets and representatives are unaffected. It is a
// no-op when the structure already covers n elements; the incremental
// solver uses it when a constraint delta introduces new variables.
func (u *UF) Grow(n int) {
	for len(u.parent) < n {
		u.parent = append(u.parent, uint32(len(u.parent)))
		u.rank = append(u.rank, 0)
		u.sets++
	}
}

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int { return u.sets }

// Find returns the representative of x, compressing the path.
func (u *UF) Find(x uint32) uint32 {
	// Iterative two-pass path compression.
	root := x
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[x] != root {
		u.parent[x], x = root, u.parent[x]
	}
	return root
}

// FindRO returns the representative of x without path compression. It
// never mutates the structure, and it reads parent pointers with atomic
// loads, so any number of goroutines may call it concurrently — including
// concurrently with Union, whose single structural write (re-pointing the
// absorbed root at the winner) is an atomic store. A reader racing a Union
// sees either the old forest (and returns the absorbed root, a stale but
// internally consistent representative — parent chains only ever move
// toward a root, never sideways) or the published new parent. Callers that
// need the post-union representative must synchronize with the uniting
// goroutine by other means; the parallel solver gets this from its pause
// protocol.
//
// FindRO is NOT safe concurrently with Find: Find's path-compression
// writes are plain stores.
func (u *UF) FindRO(x uint32) uint32 { return u.root(x) }

// root walks to the representative of x with atomic loads and no path
// compression — the read-side primitive shared by FindRO and Union.
func (u *UF) root(x uint32) uint32 {
	for {
		p := atomic.LoadUint32(&u.parent[x])
		if p == x {
			return x
		}
		x = p
	}
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y uint32) bool { return u.Find(x) == u.Find(y) }

// Union merges the sets of x and y. It returns the representative of the
// merged set and the representative that lost (was absorbed). When x and y
// were already in the same set, it returns (rep, rep).
//
// Callers that keep per-representative data use the (winner, loser) pair to
// migrate the loser's data into the winner.
//
// A single Union may run concurrently with any number of FindRO calls
// (see FindRO): it locates the two roots with the same compression-free
// atomic walk and publishes the merge with one atomic store. It must not
// run concurrently with Find or with another Union.
func (u *UF) Union(x, y uint32) (rep, absorbed uint32) {
	rx, ry := u.root(x), u.root(y)
	if rx == ry {
		return rx, rx
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	} else if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	// The one structural write that publishes the merge. An atomic store
	// pairs with FindRO's atomic loads so concurrent readers observe
	// either forest, never a torn pointer; rank and sets stay plain —
	// they are only touched under the caller's exclusion.
	atomic.StoreUint32(&u.parent[ry], rx)
	u.sets--
	return rx, ry
}

// MemBytes returns the approximate heap footprint of the structure.
func (u *UF) MemBytes() int { return len(u.parent)*4 + len(u.rank) + 48 }
