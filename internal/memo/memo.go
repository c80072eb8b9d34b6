// Package memo is an operation-level deduplication engine for the set
// algebra the solvers run: where internal/pts hash-conses repetitive
// points-to *data* (the paper's observation that solutions are massively
// duplicated), this package deduplicates the repeated *operations* over
// that data, in the style of Ghorui, Raste & Khedker's MDE — the same
// union, difference, or offset-dereference requested twice on the same
// operands is answered from a cache instead of recomputed.
//
// The key insight making the cache sound and cheap is canonical set
// identity: pts.InternID gives every set content a stable id (Equal-
// verified hash-consing, invalidated by the backing's generation counter
// on mutation), so an operation on sets is keyed by a pair of integers,
// and a hit is exact — equal ids mean equal contents, and set algebra is
// a pure function of contents. Hits return copy-on-write shares of the
// cached result (a refcount bump, zero element copies) via pts.Adopt.
//
// Table serves the sequential worklist solvers (Naive and LCD, with or
// without difference propagation), which own their factory outright:
// results are COW-shared and interned, so a hit makes the destination
// literally share the canonical backing. The parallel engine cannot use it
// (interning and refcounts are unsynchronized), and the other solvers do
// not.
//
// The cache is capacity-bounded and flushes wholesale when full —
// deterministic, O(1) amortized, and a memo flush can only cost future
// hits, never correctness. Callers must treat every returned value
// (shared Sets, target slices) as read-only or clone-on-write.
package memo

import "antgrass/internal/pts"

// Stats are the cache-effectiveness counters, exported by the solvers as
// the memo_hits / memo_misses / memo_evictions / memo_bytes metrics.
type Stats struct {
	// Hits counts operations answered from the cache; Misses counts
	// operations computed and cached. Hits/(Hits+Misses) is the hit rate
	// the benchmark report carries.
	Hits, Misses int64
	// Evictions counts entries dropped by capacity flushes.
	Evictions int64
	// Bytes approximates the heap held by cached results right now.
	Bytes int64
}

// Capacity bounds. Maps flush wholesale at these sizes; the constants are
// generous enough that flushes are rare on the benchmark families while
// keeping worst-case retained memory proportional to the solve, not the
// operation count.
const (
	tableCap      = 1 << 16 // entries per Table operation map
	entryOverhead = 64      // approximate map-entry footprint in bytes
)

// pairKey keys a binary operation by the canonical ids of its operands.
type pairKey struct{ a, b uint64 }

// derefKey keys an offset-dereference by set id and offset.
type derefKey struct {
	id  uint64
	off uint32
}

type unionEntry struct {
	result  pts.Set // COW share of dst ∪ src; nil when changed is false
	changed bool
}

// Table memoizes the three hot sequential kernels — union, difference,
// and offset-dereference — keyed on canonical interned set ids. It is
// confined to one goroutine, like the factory whose sets it caches, and
// holds COW references on cached results, so Release it (or let it die
// with the solve) when done.
type Table struct {
	unions map[pairKey]unionEntry
	diffs  map[pairKey]pts.Set
	derefs map[derefKey][]uint32
	stats  Stats
	// held bytes per map, so a single-map flush zeroes only its share
	unionBytes, diffBytes, derefBytes int64
}

// NewTable returns an empty memo table.
func NewTable() *Table {
	return &Table{
		unions: map[pairKey]unionEntry{},
		diffs:  map[pairKey]pts.Set{},
		derefs: map[derefKey][]uint32{},
	}
}

// Stats returns the cache-effectiveness counters.
func (t *Table) Stats() Stats {
	s := t.stats
	s.Bytes = t.unionBytes + t.diffBytes + t.derefBytes
	return s
}

// Union performs dst |= src through the memo and reports whether dst
// changed. ok is false when the operands' representation cannot be
// interned (plain/BDD factories) — the caller must then run the union
// itself. A hit adopts the cached result into dst: a refcount bump, no
// element copies, and the cached changed bit (sound because ids are
// content-verified and union is a pure function of contents).
func (t *Table) Union(dst, src pts.Set) (changed, ok bool) {
	idSrc, okS := pts.InternID(src)
	if !okS {
		return false, false
	}
	if idSrc == 0 {
		return false, true // empty source: nothing to add
	}
	idDst, okD := pts.InternID(dst)
	if !okD {
		return false, false
	}
	if idDst == idSrc {
		return false, true // equal contents: union is the identity
	}
	if idDst == 0 {
		// Union into an empty set is already an O(1) COW adoption in the
		// engine, and the result id is just idSrc — not worth an entry.
		return dst.UnionWith(src), true
	}
	k := pairKey{idDst, idSrc}
	if e, hit := t.unions[k]; hit {
		t.stats.Hits++
		if e.result != nil {
			pts.Adopt(dst, e.result)
		}
		return e.changed, true
	}
	t.stats.Misses++
	changed = dst.UnionWith(src)
	e := unionEntry{changed: changed}
	if changed {
		res := dst.SubtractCopy(nil) // COW share of the freshly unioned dst
		pts.InternID(res)            // canonicalize so future keys resolve to it
		e.result = res
		t.unionBytes += int64(res.MemBytes())
	}
	t.unionBytes += entryOverhead
	if len(t.unions) >= tableCap {
		t.flushUnions()
	}
	t.unions[k] = e
	return changed, true
}

// Diff computes a \ b through the memo, returning a fresh Set the caller
// owns (a COW share of the cached result on a hit — writers clone). ok is
// false when the operands cannot be interned; b must be non-nil (the
// b == nil plain-copy case is already an O(1) share in the engine).
func (t *Table) Diff(a, b pts.Set) (pts.Set, bool) {
	idA, okA := pts.InternID(a)
	if !okA {
		return nil, false
	}
	idB, okB := pts.InternID(b)
	if !okB {
		return nil, false
	}
	if idB == 0 {
		// a \ ∅ = a: hand out a plain COW copy instead of an entry.
		return a.SubtractCopy(nil), true
	}
	k := pairKey{idA, idB}
	if res, hit := t.diffs[k]; hit {
		t.stats.Hits++
		return res.SubtractCopy(nil), true
	}
	t.stats.Misses++
	res := a.SubtractCopy(b)
	pts.InternID(res)
	keep := res.SubtractCopy(nil)
	t.diffBytes += int64(keep.MemBytes()) + entryOverhead
	if len(t.diffs) >= tableCap {
		t.flushDiffs()
	}
	t.diffs[k] = keep
	return res, true
}

// OffsetDeref expands the offset-dereference *work+off: the valid targets
// of every element of work under the given validity predicate, in element
// order. elems must be work's elements (the caller's existing snapshot
// buffer — passing it in avoids a second decode on a miss). The returned
// slice is owned by the table and MUST be treated as read-only; it stays
// valid until the table is released. ok is false when work cannot be
// interned. Cached targets are pre-find: callers resolve union-find
// representatives themselves, so entries survive collapses.
func (t *Table) OffsetDeref(work pts.Set, off uint32, elems []uint32, valid func(v, off uint32) (uint32, bool)) ([]uint32, bool) {
	id, okW := pts.InternID(work)
	if !okW {
		return nil, false
	}
	k := derefKey{id: id, off: off}
	if ts, hit := t.derefs[k]; hit {
		t.stats.Hits++
		return ts, true
	}
	t.stats.Misses++
	ts := make([]uint32, 0, len(elems))
	for _, v := range elems {
		if tgt, okT := valid(v, off); okT {
			ts = append(ts, tgt)
		}
	}
	t.derefBytes += int64(4*len(ts)) + entryOverhead
	if len(t.derefs) >= tableCap {
		t.flushDerefs()
	}
	t.derefs[k] = ts
	return ts, true
}

// Release drops every cached entry and the COW references they hold,
// returning shared storage to the factory where possible. The table is
// empty but reusable afterwards.
func (t *Table) Release() {
	t.flushUnions()
	t.flushDiffs()
	t.flushDerefs()
}

func (t *Table) flushUnions() {
	for k, e := range t.unions {
		if e.result != nil {
			pts.Release(e.result)
		}
		delete(t.unions, k)
		t.stats.Evictions++
	}
	t.unionBytes = 0
}

func (t *Table) flushDiffs() {
	for k, res := range t.diffs {
		pts.Release(res)
		delete(t.diffs, k)
		t.stats.Evictions++
	}
	t.diffBytes = 0
}

func (t *Table) flushDerefs() {
	for k := range t.derefs {
		delete(t.derefs, k)
		t.stats.Evictions++
	}
	t.derefBytes = 0
}
