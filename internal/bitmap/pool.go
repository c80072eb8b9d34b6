package bitmap

// Pool is an obstack-style element allocator in the spirit of GCC's
// bitmap element pools: elements are carved out of chunk allocations and
// recycled through a free list instead of being returned to the garbage
// collector one at a time. The two effects the paper's §5.1 substrate
// relies on are reproduced here:
//
//   - allocation batching: one heap allocation covers chunkElems elements,
//     so the allocator pressure of element-churning phases (cycle
//     collapsing, set clearing, delta buffers) drops by that factor;
//   - recycling: unlink, ClearAll and the difference/intersection kernels
//     return dead elements to the pool, so a solve's element population
//     reaches a steady state instead of growing monotonically until GC.
//
// A Pool is NOT safe for concurrent use. Every bitmap drawing from a pool
// must be mutated only by the goroutine that owns the pool; the parallel
// engine gives each owner a private pool and touches the shared graph's
// pool only from the arbiter while the owners are paused (see internal/par
// and internal/core).
//
// A nil *Pool is valid and means "no pooling": every element is a fresh
// heap allocation and freed elements are left to the garbage collector,
// which is the pre-pool behavior of this package.
type Pool struct {
	free  *element // singly-linked through next
	stats PoolStats
}

// chunkElems is the number of elements per chunk allocation. GCC sizes
// its obstack chunks in pages; 64 elements (≈ 2.5 KB) keeps small solves
// cheap while still amortizing allocator overhead 64×.
const chunkElems = 64

// PoolStats counts a pool's allocator traffic. Gets - Puts is the number
// of elements currently live in bitmaps drawing from the pool.
type PoolStats struct {
	// Gets is the total number of element requests served.
	Gets int64
	// Recycled is the subset of Gets served from the free list rather
	// than fresh chunk space (the pool hit count).
	Recycled int64
	// Puts is the number of elements returned to the free list.
	Puts int64
	// Chunks is the number of chunk heap allocations performed.
	Chunks int64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Stats returns the pool's allocator counters (zero value for a nil pool).
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return p.stats
}

// get returns a zeroed, unlinked element with the given index. On a nil
// pool it is a plain heap allocation.
func (p *Pool) get(idx uint32) *element {
	if p == nil {
		return &element{idx: idx}
	}
	p.stats.Gets++
	e := p.free
	if e == nil {
		chunk := make([]element, chunkElems)
		p.stats.Chunks++
		for i := range chunk[1:] {
			chunk[i+1].next = p.free
			p.free = &chunk[i+1]
		}
		e = &chunk[0]
	} else {
		p.stats.Recycled++
		p.free = e.next
		e.next = nil
	}
	e.idx = idx
	return e
}

// put returns an unlinked element to the free list, clearing its payload
// and links so reuse starts from a pristine element. On a nil pool the
// element is simply dropped for the garbage collector.
func (p *Pool) put(e *element) {
	if p == nil {
		return
	}
	p.stats.Puts++
	e.prev = nil
	e.bits = [ElemWords]uint64{}
	e.next = p.free
	p.free = e
}

// FreeLen returns the number of elements parked on the free list: every
// element ever carved from a chunk minus the ones currently handed out.
func (p *Pool) FreeLen() int {
	if p == nil {
		return 0
	}
	return int(p.stats.Chunks*chunkElems - (p.stats.Gets - p.stats.Puts))
}

// MemBytes estimates the heap held by the pool's free list. Chunk memory
// still referenced by live bitmaps is accounted by those bitmaps.
func (p *Pool) MemBytes() int {
	return p.FreeLen() * ElemBytes
}

// Slab is an exactly sized block of elements for bitmap copies that must
// outlive the pools their sources draw from, such as a published solution
// whose solver is about to be dropped. A copy-on-write share of a pooled
// backing holds far more than its own elements: each element pins its
// whole chunk, and the chunk's free elements link through the pool's free
// list into further chunks. Copies carved from one slab hold only the
// slab, and all of them together cost one heap allocation.
//
// A bitmap copied into a slab has no pool. A later write allocates from
// the heap, and the elements it frees are left to the garbage collector.
type Slab struct {
	elems []element
}

// NewSlab returns a slab with room for n elements.
func NewSlab(n int) Slab { return Slab{elems: make([]element, n)} }

// CopyTo sets dst to a copy of src carved from the slab, dropping dst's
// previous elements without recycling them. It panics when the slab has
// fewer unused elements than src holds.
func (s *Slab) CopyTo(dst, src *Bitmap) {
	es := s.elems[:src.n:src.n]
	s.elems = s.elems[src.n:]
	*dst = Bitmap{n: src.n}
	var tail *element
	for e := src.first; e != nil; e = e.next {
		ne := &es[0]
		es = es[1:]
		ne.idx, ne.bits, ne.prev = e.idx, e.bits, tail
		if tail != nil {
			tail.next = ne
		} else {
			dst.first = ne
		}
		tail = ne
	}
	dst.last = tail
	dst.current = dst.first
}
