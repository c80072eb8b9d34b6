// Package pts abstracts the representation of points-to sets so that every
// solver can run with either GCC-style sparse bitmaps or BDDs, reproducing
// the paper's §5.4 study ("Representing Points-to Sets"). Unlike BLQ, which
// stores the whole points-to relation in a single BDD, the BDD-backed Set
// gives each variable its own BDD, exactly as the paper describes.
//
// The bitmap representation is backed by a per-factory memory engine:
//
//   - an element pool (bitmap.Pool) owned by the factory, so set churn
//     recycles storage instead of allocating — see NewBitmapFactory;
//   - copy-on-write sharing: a Set is a handle on a refcounted backing
//     bitmap; SubtractCopy(nil) and union-into-empty share the backing and
//     writers clone on demand, so the rampant duplicate sets that cycle
//     collapsing produces cost one bitmap, and Equal on shared handles is
//     a pointer compare;
//   - hash-consed deduplication: Dedup folds content-equal sets onto one
//     canonical backing via a factory-owned hash table (the MDE-style
//     "deduplicate repetitive points-to data" lever);
//   - freezing: Freeze copies a finished solution's sets out of the pools
//     into one exactly sized slab, for snapshots that outlive their
//     solver.
//
// A factory and every set created by it are confined to one goroutine at
// a time: the pool, the refcounts and the dedup table are unsynchronized.
// The parallel engine respects this by partitioning the sets: each owner
// goroutine mutates only the sets of the nodes it owns, allocating from
// an owner-private pool (NewSetIn, MutableBitmapIn), and reads them via
// AsBitmap (see internal/par and internal/core).
package pts

import "antgrass/internal/bitmap"

// Set is a mutable set of variable ids used as a points-to set.
type Set interface {
	// Insert adds x and reports whether the set changed.
	Insert(x uint32) bool
	// Contains reports membership of x.
	Contains(x uint32) bool
	// UnionWith adds all elements of o (which must come from the same
	// Factory) and reports whether the set changed.
	UnionWith(o Set) bool
	// SubtractCopy returns a fresh set holding the elements of this set
	// that are not in o (nil o means a plain copy — which the bitmap
	// representation implements as a copy-on-write share). Used by
	// difference propagation.
	SubtractCopy(o Set) Set
	// Equal reports whether the two sets (from the same Factory) hold
	// exactly the same elements.
	Equal(o Set) bool
	// Intersects reports whether the two sets share an element.
	Intersects(o Set) bool
	// ForEach visits every element in ascending order until f returns
	// false.
	ForEach(f func(x uint32) bool)
	// AppendTo appends the elements in ascending order to dst and
	// returns the extended slice: the allocation-free snapshot kernel
	// the hot solver loops use with a reusable scratch buffer.
	AppendTo(dst []uint32) []uint32
	// Len returns the number of elements.
	Len() int
	// Empty reports whether the set has no elements.
	Empty() bool
	// Slice returns the elements in ascending order (for tests/clients).
	Slice() []uint32
	// MemBytes estimates the set's private heap footprint. Shared
	// storage (a BDD manager's node table, a COW backing shared by k
	// handles — reported as 1/k per handle) is amortized so that
	// summing MemBytes over all sets approximates the true footprint.
	MemBytes() int
}

// Factory creates Sets of one representation.
type Factory interface {
	// New returns an empty set.
	New() Set
	// Name identifies the representation ("bitmap" or "bdd").
	Name() string
	// OverheadBytes estimates representation-wide shared memory
	// (the BDD manager's tables; the bitmap pool's free list).
	OverheadBytes() int
}

// Freer is implemented by representations whose storage benefits from an
// explicit release (the pooled bitmap backing). Free returns the set's
// storage to its factory; the handle must not be used afterwards.
type Freer interface{ Free() }

// Release returns s's storage to its factory when the representation
// supports it (and is a no-op otherwise, including for nil). Solvers call
// it when a set becomes dead — a collapsed node's set, a replaced
// propagated-set marker — so the backing elements recycle through the
// pool instead of waiting for the garbage collector.
func Release(s Set) {
	if f, ok := s.(Freer); ok {
		f.Free()
	}
}

// ContainsRO reports membership of x in s without mutating any state.
// Set.Contains on the bitmap representation refreshes an internal
// last-word cache, so it is writer-only; snapshot readers — any number of
// goroutines querying a frozen solution concurrently — must go through
// this cache-free kernel instead. Falls back to Contains for
// representations whose membership test is naturally read-only (BDDs).
// nil sets contain nothing.
func ContainsRO(s Set, x uint32) bool {
	if s == nil {
		return false
	}
	if bs, ok := s.(*bitmapSet); ok {
		return bs.s.b.TestRO(x)
	}
	return s.Contains(x)
}

// Dedup hash-conses s against its factory's canonical-set table: if a
// content-equal set was interned before, s is repointed (refcounted) at
// the canonical backing and its private storage is released; otherwise s
// becomes the canonical entry. Either way s itself remains valid and is
// returned. No-op for non-bitmap representations and for factories
// without COW (NewPlainBitmapFactory).
//
// Dedup is meant for merge points where many equal sets exist and the set
// is no longer hot — after cycle collapses settle, at solution
// finalization — because a deduplicated set's next in-place write pays a
// copy-on-write clone.
func Dedup(s Set) Set {
	if bs, ok := s.(*bitmapSet); ok && bs.f.cow {
		bs.f.intern(bs)
	}
	return s
}

// InternID eagerly hash-conses s and returns a stable identity for its
// current content: two sets from the same factory carry the same id iff
// they hold the same elements, making (id, id) pairs usable as memo keys
// for set-algebra operations (see internal/memo). The id is cached on the
// backing and invalidated by its generation counter, so repeated calls on
// an unchanged set are O(1); an interned set's next in-place write pays a
// copy-on-write clone, exactly as after Dedup. The empty set has the
// reserved id 0. ok is false — and no interning happens — for
// representations without the COW memory engine (BDDs, the plain bitmap
// factory), whose callers must fall back to unmemoized operations.
func InternID(s Set) (id uint64, ok bool) {
	bs, isBM := s.(*bitmapSet)
	if !isBM || !bs.f.cow {
		return 0, false
	}
	if bs.s.b.Empty() {
		return 0, true
	}
	return bs.f.internID(bs), true
}

// HashOf returns the content hash Dedup and InternID key on, cached on
// the backing and invalidated by its generation counter: repeated calls
// on an unmodified set cost two loads instead of an element-list walk.
// ok is false for non-bitmap representations.
func HashOf(s Set) (h uint64, ok bool) {
	bs, isBM := s.(*bitmapSet)
	if !isBM {
		return 0, false
	}
	return bs.f.hashOf(bs.s), true
}

// Adopt repoints dst at src's backing as a copy-on-write share — a
// refcount bump, zero element copies — leaving dst content-equal to src.
// It is the delivery mechanism for memoized operation results: a memo hit
// hands the cached result to the destination without touching its
// elements. dst's previous storage is released. Reports false (and does
// nothing) when either set lacks the COW engine.
func Adopt(dst, src Set) bool {
	db, ok1 := dst.(*bitmapSet)
	sb, ok2 := src.(*bitmapSet)
	if !ok1 || !ok2 || !db.f.cow {
		return false
	}
	if db.s == sb.s {
		return true // already sharing
	}
	db.f.stats.CowShares++
	db.release()
	sb.s.refs++
	db.s = sb.s
	return true
}

// Freeze replaces, in place, every bitmap set in sets with a copy that
// shares no storage with its source factory, and leaves every other entry
// (nil, BDD sets) as it is. It is for solutions that outlive their
// solver: a copy-on-write share of a pooled backing pins the pool (see
// bitmap.Slab), and a handle pins its factory, whose free list heads that
// pool. The distinct backings are copied into one bitmap.Slab, so handles
// that shared a backing share its copy and stay pointer-equal. Every copy
// belongs to a fresh factory with no pool and no dedup entries, so a later
// write to a copy never reaches the source factory or its sets. The
// sources are only read.
func Freeze(sets []Set) {
	slot := map[*sharedBM]int32{} // source backing -> index of its copy
	var srcs []*sharedBM
	var which []int32 // per bitmap handle, in order: the index of its copy
	elems := 0
	for _, s := range sets {
		bs, ok := s.(*bitmapSet)
		if !ok {
			continue
		}
		i, seen := slot[bs.s]
		if !seen {
			i = int32(len(srcs))
			slot[bs.s] = i
			srcs = append(srcs, bs.s)
			elems += bs.s.b.Elements()
		}
		which = append(which, i)
	}
	if len(which) == 0 {
		return
	}
	slab := bitmap.NewSlab(elems)
	copies := make([]sharedBM, len(srcs))
	for i, sh := range srcs {
		slab.CopyTo(&copies[i].b, &sh.b)
	}
	hs := make([]bitmapSet, len(which))
	var src, frozen *bitmapFactory
	for i, s := range sets {
		bs, ok := s.(*bitmapSet)
		if !ok {
			continue
		}
		if bs.f != src {
			src, frozen = bs.f, &bitmapFactory{cow: bs.f.cow, dedup: map[uint64][]*sharedBM{}}
		}
		c := &copies[which[0]]
		c.refs++
		hs[0] = bitmapSet{f: frozen, s: c}
		sets[i] = &hs[0]
		hs, which = hs[1:], which[1:]
	}
}

// AsBitmap returns the sparse bitmap backing s when s comes from a bitmap
// factory, and ok=false for any other representation (or nil s). The
// parallel solver uses it to run lock-free read-only set operations that
// the Set interface cannot express.
//
// Aliasing rules (see DESIGN.md §"COW aliasing"): the returned bitmap IS
// the set's storage, not a copy, and under copy-on-write it may be shared
// by any number of other Sets. Callers must treat it as READ-ONLY — and
// read it only through cache-free operations when other goroutines read
// it too. To mutate a set through its backing, obtain it with
// MutableBitmap instead.
func AsBitmap(s Set) (*bitmap.Bitmap, bool) {
	bs, ok := s.(*bitmapSet)
	if !ok {
		return nil, false
	}
	return &bs.s.b, true
}

// MutableBitmap is AsBitmap for writers: it un-shares s first (cloning
// the backing if other Sets alias it), so the returned bitmap is private
// to s and may be mutated freely — by one goroutine, under the same
// confinement rule as every other set mutation. The pointer is valid
// until the next operation that re-shares s (UnionWith into an empty set,
// SubtractCopy(nil), Dedup).
func MutableBitmap(s Set) (*bitmap.Bitmap, bool) {
	bs, ok := s.(*bitmapSet)
	if !ok {
		return nil, false
	}
	return bs.mutable(), true
}

// NewSetIn is Factory.New with an explicit element pool: the returned
// set's backing bitmap draws its storage from pool instead of the
// factory's own pool. The parallel engine uses it so each owner allocates
// from owner-private storage and never contends on (or corrupts) the
// unsynchronized factory pool. Elements are
// fungible between pools — a set created here may later be released into,
// or union elements from, any other pool-backed set. Falls back to
// f.New() for non-bitmap representations.
func NewSetIn(f Factory, pool *bitmap.Pool) Set {
	bf, ok := f.(*bitmapFactory)
	if !ok {
		return f.New()
	}
	sh := &sharedBM{refs: 1}
	sh.b.UsePool(pool)
	return &bitmapSet{f: bf, s: sh}
}

// MutableBitmapIn is MutableBitmap with an explicit element pool: the
// returned bitmap's future inserts draw from pool (the backing is
// re-pointed in place when s is sole owner, or cloned into pool when the
// backing is shared). Parallel owners call it so every mutation of an
// owned set allocates from the owner's pool.
//
// Concurrency: safe to call from concurrent owners ONLY while the
// solver's "unshared during solve" invariant holds — every graph-owned
// backing has refcount 1 between solve start and finalization (unite
// adopt-then-release nets to one reference; Dedup sharing happens only at
// finalize) — because the clone path decrements the shared backing's
// unsynchronized refcount. The clone path exists for sequential callers
// and is exercised by tests, not by the parallel engine.
func MutableBitmapIn(s Set, pool *bitmap.Pool) (*bitmap.Bitmap, bool) {
	bs, ok := s.(*bitmapSet)
	if !ok {
		return nil, false
	}
	sh := bs.s
	if sh.refs > 1 {
		sh.refs--
		ns := &sharedBM{refs: 1}
		ns.b = *sh.b.CopyIn(pool)
		bs.s = ns
		return &ns.b, true
	}
	sh.b.UsePool(pool)
	return &sh.b, true
}

// AllocStats are the bitmap factory's memory-engine counters, exported
// into the metrics registry by the solvers (pool_* / cow_* / dedup_*
// counters in antbench -json reports).
type AllocStats struct {
	// PoolGets / PoolRecycled / PoolPuts / PoolChunks mirror
	// bitmap.PoolStats for the factory's pool: total element requests,
	// requests served by recycling, elements returned, and chunk heap
	// allocations. PoolRecycled/PoolGets is the pool hit rate.
	PoolGets, PoolRecycled, PoolPuts, PoolChunks int64
	// CowShares counts copy-on-write shares taken (SubtractCopy(nil),
	// union-into-empty, dedup hits); CowClones counts the clones paid
	// when a shared backing was written.
	CowShares, CowClones int64
	// DedupLookups / DedupHits count Dedup calls that hashed the set
	// and the subset that found an existing canonical backing.
	DedupLookups, DedupHits int64
}

// StatsSource is implemented by factories that expose memory-engine
// counters.
type StatsSource interface{ AllocStats() AllocStats }

// sharedBM is a refcounted bitmap backing. refs counts the bitmapSet
// handles pointing at it, plus one for the dedup table when interned.
//
// hash and id are lazily computed values derived from the bitmap's
// content, each validated against the bitmap's generation counter: the
// cached value is current iff its recorded generation equals b.Gen()+1
// (the +1 keeps the zero value meaning "never computed"). An in-place
// mutation bumps b's generation and thereby invalidates both without any
// bookkeeping on the write path.
type sharedBM struct {
	b        bitmap.Bitmap
	refs     int32
	interned bool
	hash     uint64 // cached b.Hash(), valid iff hashGen == b.Gen()+1
	hashGen  uint64
	id       uint64 // stable interned identity, valid iff idGen == b.Gen()+1
	idGen    uint64
}

// hashOf returns sh's content hash, computing and caching it on first use
// per content generation. Interned backings are immutable in place (the
// table's reference forces every write through a copy-on-write clone), so
// for them the cache is computed once and hit forever.
func (f *bitmapFactory) hashOf(sh *sharedBM) uint64 {
	g := sh.b.Gen() + 1
	if sh.hashGen != g {
		sh.hash = sh.b.Hash()
		sh.hashGen = g
	}
	return sh.hash
}

// bitmapSet adapts a refcounted, pooled bitmap.Bitmap to Set.
type bitmapSet struct {
	f *bitmapFactory
	s *sharedBM
}

// NewBitmapFactory returns the sparse-bitmap representation used by the
// paper's Tables 3 and 4, with the full memory engine: a factory-owned
// element pool, copy-on-write sharing, and hash-consed deduplication.
// The factory and its sets are confined to one goroutine at a time.
func NewBitmapFactory() Factory {
	return &bitmapFactory{cow: true, pool: bitmap.NewPool(), dedup: map[uint64][]*sharedBM{}}
}

// NewPlainBitmapFactory returns the bitmap representation with the memory
// engine disabled: no pooling, no sharing, no dedup — every operation
// allocates and copies eagerly, as the pre-engine implementation did. It
// exists for differential testing (the oracle matrix solves with both
// factories and demands bit-identical solutions) and as an ablation
// baseline; Name reports "bitmap-plain".
func NewPlainBitmapFactory() Factory { return &bitmapFactory{} }

type bitmapFactory struct {
	cow    bool
	pool   *bitmap.Pool // nil for the plain factory
	dedup  map[uint64][]*sharedBM
	nextID uint64 // last interned-identity value handed out (0 = empty set)
	stats  AllocStats
}

// dedupBucketCap bounds the candidates scanned per content-hash bucket;
// 64-bit FNV collisions are vanishingly rare, so a small cap only guards
// pathological inputs.
const dedupBucketCap = 4

func (f *bitmapFactory) New() Set { return f.newSet() }

func (f *bitmapFactory) newSet() *bitmapSet {
	sh := &sharedBM{refs: 1}
	sh.b.UsePool(f.pool)
	return &bitmapSet{f: f, s: sh}
}

func (f *bitmapFactory) Name() string {
	if !f.cow {
		return "bitmap-plain"
	}
	return "bitmap"
}

func (f *bitmapFactory) OverheadBytes() int { return f.pool.MemBytes() }

func (f *bitmapFactory) AllocStats() AllocStats {
	out := f.stats
	ps := f.pool.Stats()
	out.PoolGets, out.PoolRecycled, out.PoolPuts, out.PoolChunks =
		ps.Gets, ps.Recycled, ps.Puts, ps.Chunks
	return out
}

// intern implements Dedup for one set handle.
func (f *bitmapFactory) intern(s *bitmapSet) {
	if s.s.b.Empty() {
		return
	}
	f.internID(s)
}

// internID hash-conses s against the factory's canonical-set table and
// returns a stable identity for its content: content-equal sets always
// resolve to the same id (candidates are Equal-verified, so a hash
// collision can never alias two different contents), and an in-place
// mutation invalidates the cached id via the backing's generation counter
// so the next call re-resolves. On a table hit s is repointed at the
// canonical backing (a refcount bump — the COW share that makes later
// Equal calls a pointer compare); on a miss s's own backing becomes
// canonical when its bucket has room, and is merely assigned an id when
// the bucket is full (losing future hits against it, never soundness).
// The caller has checked the set is non-empty.
func (f *bitmapFactory) internID(s *bitmapSet) uint64 {
	sh := s.s
	g := sh.b.Gen() + 1
	if sh.idGen == g {
		return sh.id // unchanged since last resolution
	}
	f.stats.DedupLookups++
	h := f.hashOf(sh)
	bucket := f.dedup[h]
	already := false
	for _, cand := range bucket {
		if cand == sh {
			already = true // in the table, but its id predates this scheme
			continue
		}
		if cand.b.Equal(&sh.b) {
			f.stats.DedupHits++
			f.stats.CowShares++
			s.release()
			cand.refs++
			s.s = cand
			return f.canonicalID(cand)
		}
	}
	f.nextID++
	sh.id = f.nextID
	sh.idGen = g
	if !already && len(bucket) < dedupBucketCap {
		// The table holds its own reference so a canonical backing is
		// never recycled out from under a future hit.
		sh.refs++
		sh.interned = true
		f.dedup[h] = append(bucket, sh)
	}
	return sh.id
}

// canonicalID returns the id of a backing already in the dedup table,
// assigning one if it was interned before ids existed for its current
// content.
func (f *bitmapFactory) canonicalID(sh *sharedBM) uint64 {
	g := sh.b.Gen() + 1
	if sh.idGen != g {
		f.nextID++
		sh.id = f.nextID
		sh.idGen = g
	}
	return sh.id
}

// mutable returns the backing bitmap with s as its sole owner, paying a
// copy-on-write clone if the backing is shared.
func (s *bitmapSet) mutable() *bitmap.Bitmap {
	sh := s.s
	if sh.refs > 1 {
		sh.refs--
		s.f.stats.CowClones++
		ns := &sharedBM{refs: 1}
		ns.b = *sh.b.CopyIn(s.f.pool)
		s.s = ns
		return &ns.b
	}
	return &sh.b
}

// release drops s's reference on its backing, returning the elements to
// the pool when it was the last one.
func (s *bitmapSet) release() {
	sh := s.s
	sh.refs--
	if sh.refs == 0 {
		sh.b.ClearAll()
	}
}

// Free implements Freer. The handle must not be used after Free.
func (s *bitmapSet) Free() {
	s.release()
	s.s = nil // use-after-free becomes a loud nil deref, not corruption
}

func (s *bitmapSet) Insert(x uint32) bool {
	// The no-op probe on a shared backing must be cache-free: refs > 1
	// includes "shared with a published snapshot", whose readers may be
	// running TestRO on the same backing right now, and Test would move
	// the cursor cache under them.
	if s.s.refs > 1 && s.s.b.TestRO(x) {
		return false // no-op insert: don't pay the clone
	}
	return s.mutable().Set(x)
}

func (s *bitmapSet) Contains(x uint32) bool { return s.s.b.Test(x) }
func (s *bitmapSet) Len() int               { return s.s.b.Count() }
func (s *bitmapSet) Empty() bool            { return s.s.b.Empty() }
func (s *bitmapSet) Slice() []uint32        { return s.s.b.Slice() }

func (s *bitmapSet) AppendTo(dst []uint32) []uint32 { return s.s.b.AppendTo(dst) }

// MemBytes amortizes a shared backing over the handles sharing it (the
// dedup table's reference is excluded), so a points-to solution's summed
// footprint reflects deduplication.
func (s *bitmapSet) MemBytes() int {
	owners := s.s.refs
	if s.s.interned {
		owners--
	}
	mb := s.s.b.MemBytes()
	if owners > 1 {
		mb /= int(owners)
	}
	return mb + 16
}

func (s *bitmapSet) UnionWith(o Set) bool {
	ob := o.(*bitmapSet)
	if ob.s == s.s || ob.s.b.Empty() {
		return false
	}
	if s.f.cow && s.s.b.Empty() {
		// Union into an empty set: adopt the source's backing as a
		// copy-on-write share instead of copying its elements.
		s.f.stats.CowShares++
		s.release()
		ob.s.refs++
		s.s = ob.s
		return true
	}
	return s.mutable().IorWith(&ob.s.b)
}

func (s *bitmapSet) SubtractCopy(o Set) Set {
	if o == nil && s.f.cow {
		// Plain copy: share the backing, clone only if either side is
		// written later.
		s.f.stats.CowShares++
		s.s.refs++
		return &bitmapSet{f: s.f, s: s.s}
	}
	out := s.f.newSet()
	var ob *bitmap.Bitmap
	if o != nil {
		ob = &o.(*bitmapSet).s.b
	}
	// Single-pass difference kernel: copies only the surviving elements,
	// unlike the copy-then-subtract it replaces.
	out.s.b.IorDiffWith(&s.s.b, ob)
	return out
}

func (s *bitmapSet) Equal(o Set) bool {
	ob := o.(*bitmapSet)
	if ob.s == s.s {
		return true // shared backing: pointer identity decides
	}
	return s.s.b.Equal(&ob.s.b)
}

func (s *bitmapSet) Intersects(o Set) bool {
	ob := o.(*bitmapSet)
	if ob.s == s.s {
		return !s.s.b.Empty()
	}
	return s.s.b.Intersects(&ob.s.b)
}

func (s *bitmapSet) ForEach(f func(uint32) bool) { s.s.b.ForEach(f) }
