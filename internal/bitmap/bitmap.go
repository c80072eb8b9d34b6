// Package bitmap implements sparse bitmaps in the style of the GCC 4.1.1
// compiler's bitmap.c: a sorted, doubly-linked list of fixed-size elements,
// each covering a 128-bit aligned block of the index space, with a one-element
// "current" cache to exploit locality of reference.
//
// The paper ("The Ant and the Grasshopper", PLDI 2007, §5.1) uses exactly this
// data structure for both points-to sets and the constraint graph's edge sets;
// this package is the Go equivalent.
package bitmap

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	// WordBits is the number of bits in one machine word of an element.
	WordBits = 64
	// ElemWords is the number of words per element (GCC uses a 128-bit
	// element on 64-bit hosts: 2 words).
	ElemWords = 2
	// ElemBits is the number of index bits covered by one element.
	ElemBits = WordBits * ElemWords
	// ElemBytes is the approximate in-memory footprint of one element,
	// used for the paper's memory-consumption tables: two 8-byte words,
	// two 8-byte links, and a 4-byte index rounded up to alignment.
	ElemBytes = ElemWords*8 + 2*8 + 8
)

// element is one node of the sparse list, covering indices
// [idx*ElemBits, (idx+1)*ElemBits).
type element struct {
	next, prev *element
	idx        uint32
	bits       [ElemWords]uint64
}

func (e *element) empty() bool {
	for _, w := range e.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bitmap is a sparse bitmap. The zero value is an empty bitmap ready to use
// (with no element pool). Bitmap is not safe for concurrent use.
type Bitmap struct {
	first   *element
	last    *element
	current *element // cache of the most recently accessed element
	n       int      // number of elements in the list
	gen     uint64   // content generation; bumped by every mutation that changes bits
	pool    *Pool    // element allocator; nil = plain heap allocation
}

// New returns a new empty bitmap with no element pool. Equivalent to
// new(Bitmap); provided for symmetry with other constructors in this module.
func New() *Bitmap { return &Bitmap{} }

// NewIn returns a new empty bitmap drawing elements from pool (which may
// be nil for plain heap allocation). All bitmaps sharing a pool must be
// mutated from a single goroutine at a time — the pool is not locked.
func NewIn(pool *Pool) *Bitmap { return &Bitmap{pool: pool} }

// UsePool sets the element allocator for subsequent allocations and
// frees. It is intended for bitmaps embedded by value in another struct,
// where NewIn cannot be used. Elements already allocated stay where they
// are; mixing pooled and unpooled elements in one list is harmless
// because recycling happens element by element.
func (b *Bitmap) UsePool(pool *Pool) { b.pool = pool }

// Elements returns the number of list elements currently allocated, the unit
// of the analytic memory accounting used by the benchmark harness.
func (b *Bitmap) Elements() int { return b.n }

// MemBytes returns the approximate heap footprint of the bitmap.
func (b *Bitmap) MemBytes() int { return b.n*ElemBytes + 48 }

// Gen returns the bitmap's content generation: a counter bumped by every
// mutation that changes which bits are set (Set, Clear, ClearAll, the
// Ior/And family). Derived values computed from the bitmap — content
// hashes, interned identities — stay valid exactly while Gen is unchanged,
// which is what lets the pts layer cache them without re-reading the
// elements. Reads (Test, iteration, Copy) never advance it, and a fresh
// copy starts back at generation zero: generations identify states of one
// bitmap, not contents across bitmaps.
func (b *Bitmap) Gen() uint64 { return b.gen }

// Empty reports whether no bit is set.
func (b *Bitmap) Empty() bool { return b.first == nil }

// ClearAll removes every bit, returning all elements to the pool (or the
// garbage collector when the bitmap has none).
func (b *Bitmap) ClearAll() {
	if b.first != nil {
		b.gen++
	}
	if b.pool != nil {
		for e := b.first; e != nil; {
			next := e.next
			b.pool.put(e)
			e = next
		}
	}
	b.first, b.last, b.current, b.n = nil, nil, nil, 0
}

// find returns the element with index eidx, or nil if absent. It updates the
// current-element cache to the element found (or to a neighbor of where it
// would be inserted).
func (b *Bitmap) find(eidx uint32) *element {
	e := b.current
	if e == nil {
		e = b.first
	}
	if e == nil {
		return nil
	}
	// Walk from the cached element in the right direction.
	if e.idx < eidx {
		for e.next != nil && e.idx < eidx {
			e = e.next
		}
	} else {
		for e.prev != nil && e.idx > eidx {
			e = e.prev
		}
	}
	b.current = e
	if e.idx == eidx {
		return e
	}
	return nil
}

// insertAfterCurrent links a fresh element with index eidx into the list in
// sorted position, assuming b.current is adjacent to the insertion point
// (guaranteed after a failed find).
func (b *Bitmap) insert(eidx uint32) *element {
	ne := b.pool.get(eidx)
	b.n++
	if b.first == nil {
		b.first, b.last, b.current = ne, ne, ne
		return ne
	}
	e := b.current
	if e.idx < eidx {
		// Insert after e.
		ne.prev = e
		ne.next = e.next
		e.next = ne
		if ne.next != nil {
			ne.next.prev = ne
		} else {
			b.last = ne
		}
	} else {
		// Insert before e.
		ne.next = e
		ne.prev = e.prev
		e.prev = ne
		if ne.prev != nil {
			ne.prev.next = ne
		} else {
			b.first = ne
		}
	}
	b.current = ne
	return ne
}

// unlink removes element e from the list and returns it to the pool.
func (b *Bitmap) unlink(e *element) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		b.first = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		b.last = e.prev
	}
	if b.current == e {
		if e.next != nil {
			b.current = e.next
		} else {
			b.current = e.prev
		}
	}
	b.n--
	b.pool.put(e)
}

// Set sets bit x and reports whether the bitmap changed (x was newly set).
func (b *Bitmap) Set(x uint32) bool {
	eidx := x / ElemBits
	word := (x % ElemBits) / WordBits
	mask := uint64(1) << (x % WordBits)
	e := b.find(eidx)
	if e == nil {
		e = b.insert(eidx)
	}
	if e.bits[word]&mask != 0 {
		return false
	}
	e.bits[word] |= mask
	b.gen++
	return true
}

// Clear clears bit x and reports whether the bitmap changed.
func (b *Bitmap) Clear(x uint32) bool {
	eidx := x / ElemBits
	word := (x % ElemBits) / WordBits
	mask := uint64(1) << (x % WordBits)
	e := b.find(eidx)
	if e == nil || e.bits[word]&mask == 0 {
		return false
	}
	e.bits[word] &^= mask
	if e.empty() {
		b.unlink(e)
	}
	b.gen++
	return true
}

// Test reports whether bit x is set.
func (b *Bitmap) Test(x uint32) bool {
	eidx := x / ElemBits
	e := b.find(eidx)
	if e == nil {
		return false
	}
	word := (x % ElemBits) / WordBits
	return e.bits[word]&(1<<(x%WordBits)) != 0
}

// TestRO reports whether bit x is set without updating the current-element
// cache. Unlike Test it never mutates the bitmap, so any number of
// goroutines may call it concurrently as long as no writer runs at the same
// time. It pays for that safety with a scan from the front of the list;
// readers probing with locality should carry a Cursor and call TestROAt
// instead, which replaces the O(n) front scan with a walk from the
// caller-owned cursor position.
func (b *Bitmap) TestRO(x uint32) bool {
	var c Cursor
	return b.TestROAt(x, &c)
}

// Cursor is a caller-owned position hint for read-only probes of one
// bitmap. It is the sharded replacement for the bitmap's single
// current-element cache: concurrent readers cannot share the cache (the
// update would be a data race), so each reader keeps its own cursor and
// TestROAt writes only to it, never to the bitmap.
//
// Validity rules:
//
//   - a Cursor belongs to one (reader, bitmap) pair; probing a different
//     bitmap through it requires Reset first;
//   - ANY mutation of the bitmap invalidates its cursors — with element
//     pooling a stale cursor may point to an element recycled into
//     another bitmap, so the rule is strict. Cursors suit bitmaps that
//     are frozen while readers probe them, such as the shared backings
//     of published snapshots.
//
// The zero value is a valid empty cursor.
type Cursor struct {
	e *element
}

// Reset clears the cursor so the next probe scans from the front.
func (c *Cursor) Reset() { c.e = nil }

// TestROAt reports whether bit x is set, starting the element search at
// the cursor's remembered position and walking the doubly-linked list in
// the right direction, exactly as the writer-side cache does. The cursor
// is advanced to the element nearest x, so probe sequences with locality
// cost O(distance) instead of a front scan per probe. The bitmap is never
// written; only the caller-owned cursor is.
func (b *Bitmap) TestROAt(x uint32, c *Cursor) bool {
	eidx := x / ElemBits
	e := c.e
	if e == nil {
		e = b.first
	}
	if e == nil {
		return false
	}
	if e.idx < eidx {
		for e.next != nil && e.idx < eidx {
			e = e.next
		}
	} else {
		for e.prev != nil && e.idx > eidx {
			e = e.prev
		}
	}
	c.e = e
	if e.idx != eidx {
		return false
	}
	word := (x % ElemBits) / WordBits
	return e.bits[word]&(1<<(x%WordBits)) != 0
}

// IorDiffWith sets b = b | (src &^ excl) and reports whether b changed:
// the delta-merge operation of the parallel solver, accumulating into a
// worker-private buffer the part of src not already present in excl. src
// and excl are only read (never through the cache), so concurrent
// IorDiffWith calls on distinct receivers may share them. excl may be nil
// (treated as empty); b must be distinct from both arguments.
func (b *Bitmap) IorDiffWith(src, excl *Bitmap) bool {
	if src == nil || src.first == nil {
		return false
	}
	changed := false
	var ee *element
	if excl != nil {
		ee = excl.first
	}
	be := b.first
	var tail *element // last element known to be in place before be
	for se := src.first; se != nil; se = se.next {
		for ee != nil && ee.idx < se.idx {
			ee = ee.next
		}
		var masked [ElemWords]uint64
		any := false
		for w := 0; w < ElemWords; w++ {
			v := se.bits[w]
			if ee != nil && ee.idx == se.idx {
				v &^= ee.bits[w]
			}
			masked[w] = v
			if v != 0 {
				any = true
			}
		}
		if !any {
			continue
		}
		for be != nil && be.idx < se.idx {
			tail = be
			be = be.next
		}
		if be != nil && be.idx == se.idx {
			for w := 0; w < ElemWords; w++ {
				nw := be.bits[w] | masked[w]
				if nw != be.bits[w] {
					be.bits[w] = nw
					changed = true
				}
			}
			tail = be
			be = be.next
			continue
		}
		// Insert a fresh element holding the masked words between tail
		// and be.
		ne := b.pool.get(se.idx)
		ne.bits = masked
		b.n++
		changed = true
		ne.prev = tail
		ne.next = be
		if tail != nil {
			tail.next = ne
		} else {
			b.first = ne
		}
		if be != nil {
			be.prev = ne
		} else {
			b.last = ne
		}
		tail = ne
	}
	if changed {
		b.current = b.first
		b.gen++
	}
	return changed
}

// IorWith sets b = b | o and reports whether b changed. o is not modified.
// b and o may be the same bitmap (a no-op).
func (b *Bitmap) IorWith(o *Bitmap) bool {
	if b == o || o.first == nil {
		return false
	}
	changed := false
	be := b.first
	var tail *element // last element known to be in place before be
	for oe := o.first; oe != nil; oe = oe.next {
		for be != nil && be.idx < oe.idx {
			tail = be
			be = be.next
		}
		if be != nil && be.idx == oe.idx {
			for w := 0; w < ElemWords; w++ {
				nw := be.bits[w] | oe.bits[w]
				if nw != be.bits[w] {
					be.bits[w] = nw
					changed = true
				}
			}
			tail = be
			be = be.next
			continue
		}
		// Insert a copy of oe between tail and be.
		ne := b.pool.get(oe.idx)
		ne.bits = oe.bits
		b.n++
		changed = true
		ne.prev = tail
		ne.next = be
		if tail != nil {
			tail.next = ne
		} else {
			b.first = ne
		}
		if be != nil {
			be.prev = ne
		} else {
			b.last = ne
		}
		tail = ne
	}
	if changed {
		b.current = b.first
		b.gen++
	}
	return changed
}

// AndWith sets b = b & o and reports whether b changed.
func (b *Bitmap) AndWith(o *Bitmap) bool {
	if b == o {
		return false
	}
	changed := false
	oe := o.first
	for be := b.first; be != nil; {
		next := be.next
		for oe != nil && oe.idx < be.idx {
			oe = oe.next
		}
		if oe == nil || oe.idx != be.idx {
			b.unlink(be)
			changed = true
			be = next
			continue
		}
		for w := 0; w < ElemWords; w++ {
			nw := be.bits[w] & oe.bits[w]
			if nw != be.bits[w] {
				be.bits[w] = nw
				changed = true
			}
		}
		if be.empty() {
			b.unlink(be)
		}
		be = next
	}
	if changed {
		b.gen++
	}
	return changed
}

// AndComplWith sets b = b &^ o (set difference) and reports whether b changed.
func (b *Bitmap) AndComplWith(o *Bitmap) bool {
	if b == o {
		ch := b.first != nil
		b.ClearAll()
		return ch
	}
	changed := false
	oe := o.first
	for be := b.first; be != nil; {
		next := be.next
		for oe != nil && oe.idx < be.idx {
			oe = oe.next
		}
		if oe != nil && oe.idx == be.idx {
			for w := 0; w < ElemWords; w++ {
				nw := be.bits[w] &^ oe.bits[w]
				if nw != be.bits[w] {
					be.bits[w] = nw
					changed = true
				}
			}
			if be.empty() {
				b.unlink(be)
			}
		}
		be = next
	}
	if changed {
		b.gen++
	}
	return changed
}

// Equal reports whether b and o contain exactly the same bits.
//
// Cheap structural facts are compared before walking the lists: elements
// are never empty and cover disjoint index ranges, so bitmaps with
// different element counts — or different first or last element indices —
// cannot be equal. The full walk runs only for plausibly-equal operands.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b == o {
		return true
	}
	if b.n != o.n {
		return false
	}
	if b.first != nil && (b.first.idx != o.first.idx || b.last.idx != o.last.idx) {
		return false
	}
	be, oe := b.first, o.first
	for be != nil && oe != nil {
		if be.idx != oe.idx || be.bits != oe.bits {
			return false
		}
		be, oe = be.next, oe.next
	}
	return be == nil && oe == nil
}

// Intersects reports whether b and o share at least one set bit. Disjoint
// index ranges (first/last comparison) are rejected without walking.
func (b *Bitmap) Intersects(o *Bitmap) bool {
	if b.first == nil || o.first == nil ||
		b.last.idx < o.first.idx || o.last.idx < b.first.idx {
		return false
	}
	be, oe := b.first, o.first
	for be != nil && oe != nil {
		switch {
		case be.idx < oe.idx:
			be = be.next
		case be.idx > oe.idx:
			oe = oe.next
		default:
			for w := 0; w < ElemWords; w++ {
				if be.bits[w]&oe.bits[w] != 0 {
					return true
				}
			}
			be, oe = be.next, oe.next
		}
	}
	return false
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for e := b.first; e != nil; e = e.next {
		for _, w := range e.bits {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// Copy returns an independent copy of b, drawing elements from the same
// pool as b.
func (b *Bitmap) Copy() *Bitmap { return b.CopyIn(b.pool) }

// CopyIn returns an independent copy of b drawing elements from pool
// (which may be nil for plain heap allocation).
func (b *Bitmap) CopyIn(pool *Pool) *Bitmap {
	nb := NewIn(pool)
	var tail *element
	for e := b.first; e != nil; e = e.next {
		ne := pool.get(e.idx)
		ne.bits = e.bits
		ne.prev = tail
		if tail != nil {
			tail.next = ne
		} else {
			nb.first = ne
		}
		tail = ne
		nb.n++
	}
	nb.last = tail
	nb.current = nb.first
	return nb
}

// ForEach calls f for each set bit in ascending order. If f returns false,
// iteration stops early. f must not modify the bitmap.
func (b *Bitmap) ForEach(f func(x uint32) bool) {
	for e := b.first; e != nil; e = e.next {
		base := e.idx * ElemBits
		for w := 0; w < ElemWords; w++ {
			v := e.bits[w]
			for v != 0 {
				t := uint32(bits.TrailingZeros64(v))
				if !f(base + uint32(w)*WordBits + t) {
					return
				}
				v &= v - 1
			}
		}
	}
}

// AppendTo appends all set bits to dst in ascending order and returns the
// extended slice. It is the word-level decoding kernel behind Slice: the
// hot solver loops use it with a reusable scratch buffer to snapshot a set
// without the per-bit closure call ForEach costs.
func (b *Bitmap) AppendTo(dst []uint32) []uint32 {
	for e := b.first; e != nil; e = e.next {
		base := e.idx * ElemBits
		for w := 0; w < ElemWords; w++ {
			v := e.bits[w]
			wordBase := base + uint32(w)*WordBits
			for v != 0 {
				dst = append(dst, wordBase+uint32(bits.TrailingZeros64(v)))
				v &= v - 1
			}
		}
	}
	return dst
}

// Slice returns all set bits in ascending order. Intended for tests and
// small sets.
func (b *Bitmap) Slice() []uint32 {
	if b.first == nil {
		return nil
	}
	return b.AppendTo(make([]uint32, 0, 8))
}

// Hash returns a content hash of the bitmap (FNV-1a over element indices
// and words), suitable for hash-consing equal sets: Equal bitmaps hash
// identically regardless of how they were built.
func (b *Bitmap) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for e := b.first; e != nil; e = e.next {
		h = (h ^ uint64(e.idx)) * prime64
		for _, w := range e.bits {
			h = (h ^ w) * prime64
		}
	}
	return h
}

// Min returns the smallest set bit, or (0, false) when empty.
func (b *Bitmap) Min() (uint32, bool) {
	e := b.first
	if e == nil {
		return 0, false
	}
	for w := 0; w < ElemWords; w++ {
		if e.bits[w] != 0 {
			return e.idx*ElemBits + uint32(w)*WordBits + uint32(bits.TrailingZeros64(e.bits[w])), true
		}
	}
	return 0, false // unreachable: elements are never empty
}

// String renders the bitmap as "{1 5 130}" for debugging.
func (b *Bitmap) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	firstItem := true
	b.ForEach(func(x uint32) bool {
		if !firstItem {
			sb.WriteByte(' ')
		}
		firstItem = false
		fmt.Fprintf(&sb, "%d", x)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
