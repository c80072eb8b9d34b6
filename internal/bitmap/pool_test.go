package bitmap

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// poolModel pairs one pooled bitmap with a map-backed reference; the
// byte-driven property tests below mutate both and demand they never
// diverge, while every element the bitmaps shed flows through one shared
// pool (exercising recycling across bitmaps).
type poolModel struct {
	bm  *Bitmap
	ref map[uint32]bool
}

func (pm *poolModel) check(t *testing.T, tag string) {
	t.Helper()
	want := map[uint32]bool{}
	for x, ok := range pm.ref {
		if ok {
			want[x] = true
		}
	}
	got := pm.bm.AppendTo(nil)
	if len(got) != len(want) {
		t.Fatalf("%s: bitmap has %d members, reference %d", tag, len(got), len(want))
	}
	last := int64(-1)
	elems := map[uint32]bool{}
	for _, x := range got {
		if int64(x) <= last {
			t.Fatalf("%s: AppendTo not strictly ascending at %d", tag, x)
		}
		last = int64(x)
		if !want[x] {
			t.Fatalf("%s: bitmap contains %d, reference does not", tag, x)
		}
		elems[x/ElemBits] = true
	}
	if pm.bm.Count() != len(want) {
		t.Fatalf("%s: Count=%d want %d", tag, pm.bm.Count(), len(want))
	}
	// Elements accounting must be exact: one list element per occupied
	// 128-bit window, regardless of how much recycling happened.
	if pm.bm.Elements() != len(elems) {
		t.Fatalf("%s: Elements=%d want %d", tag, pm.bm.Elements(), len(elems))
	}
	if pm.bm.MemBytes() != len(elems)*ElemBytes+48 {
		t.Fatalf("%s: MemBytes=%d want %d", tag, pm.bm.MemBytes(), len(elems)*ElemBytes+48)
	}
}

// runPooledOps interprets data as a random operation sequence over nSlots
// pooled bitmaps and their references. It returns the pool for accounting
// assertions.
func runPooledOps(t *testing.T, data []byte, nSlots int) (*Pool, []*poolModel) {
	t.Helper()
	pool := NewPool()
	slots := make([]*poolModel, nSlots)
	for i := range slots {
		slots[i] = &poolModel{bm: NewIn(pool), ref: map[uint32]bool{}}
	}
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	for i < len(data) {
		op := next() % 10
		a := slots[int(next())%nSlots]
		o := slots[int(next())%nSlots]
		// Bit universe of ~1<<11 keeps elements dense enough to collide
		// and sparse enough to allocate and free constantly.
		x := uint32(next()) | uint32(next()&7)<<8
		switch op {
		case 0, 1: // Set (twice as likely, to keep sets non-trivial)
			gotNew := a.bm.Set(x)
			if gotNew == a.ref[x] {
				t.Fatalf("op %d: Set(%d) changed=%v but reference had %v", i, x, gotNew, a.ref[x])
			}
			a.ref[x] = true
		case 2: // Clear
			got := a.bm.Clear(x)
			if got != a.ref[x] {
				t.Fatalf("op %d: Clear(%d) changed=%v but reference had %v", i, x, got, a.ref[x])
			}
			delete(a.ref, x)
		case 3: // Test / TestRO agreement
			want := a.ref[x]
			if a.bm.Test(x) != want || a.bm.TestRO(x) != want {
				t.Fatalf("op %d: Test(%d) disagrees with reference %v", i, x, want)
			}
		case 4: // IorWith
			if a == o {
				continue
			}
			a.bm.IorWith(o.bm)
			for y, ok := range o.ref {
				if ok {
					a.ref[y] = true
				}
			}
		case 5: // AndWith
			if a == o {
				continue
			}
			a.bm.AndWith(o.bm)
			for y := range a.ref {
				if !o.ref[y] {
					delete(a.ref, y)
				}
			}
		case 6: // AndComplWith
			if a == o {
				continue
			}
			a.bm.AndComplWith(o.bm)
			for y := range a.ref {
				if o.ref[y] {
					delete(a.ref, y)
				}
			}
		case 7: // ClearAll: the big recycling event
			a.bm.ClearAll()
			a.ref = map[uint32]bool{}
		case 8: // replace a with a pooled copy of o
			if a == o {
				continue
			}
			a.bm.ClearAll()
			a.bm = o.bm.CopyIn(pool)
			a.ref = map[uint32]bool{}
			for y, ok := range o.ref {
				if ok {
					a.ref[y] = true
				}
			}
		case 9: // Equal / Intersects / Hash cross-checks
			if a == o {
				continue
			}
			refEq := len(a.ref) == len(o.ref)
			if refEq {
				for y, ok := range a.ref {
					if ok && !o.ref[y] {
						refEq = false
						break
					}
				}
			}
			if got := a.bm.Equal(o.bm); got != refEq {
				t.Fatalf("op %d: Equal=%v reference says %v", i, got, refEq)
			}
			if refEq && a.bm.Hash() != o.bm.Hash() {
				t.Fatalf("op %d: equal bitmaps hash to %x vs %x", i, a.bm.Hash(), o.bm.Hash())
			}
			refInter := false
			for y, ok := range a.ref {
				if ok && o.ref[y] {
					refInter = true
					break
				}
			}
			if got := a.bm.Intersects(o.bm); got != refInter {
				t.Fatalf("op %d: Intersects=%v reference says %v", i, got, refInter)
			}
		}
	}
	for si, pm := range slots {
		pm.check(t, "final slot "+string(rune('0'+si)))
	}
	return pool, slots
}

// TestPooledOpsMatchReference is the pool/COW-era property test: long
// random op sequences over bitmaps sharing one recycling pool must behave
// exactly like map-backed reference sets.
func TestPooledOpsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4096)
		rng.Read(data)
		runPooledOps(t, data, 4)
	}
}

// TestPoolLeakAccounting asserts the pool's books balance exactly: at any
// quiescent point, elements handed out minus elements returned equals the
// elements live in bitmaps, and after every bitmap is cleared the entire
// chunk population sits on the free list.
func TestPoolLeakAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 8192)
	rng.Read(data)
	pool, slots := runPooledOps(t, data, 5)
	st := pool.Stats()
	live := 0
	for _, pm := range slots {
		live += pm.bm.Elements()
	}
	if int64(live) != st.Gets-st.Puts {
		t.Fatalf("live elements %d != Gets-Puts = %d-%d = %d", live, st.Gets, st.Puts, st.Gets-st.Puts)
	}
	if got := pool.FreeLen(); int64(got) != st.Chunks*chunkElems-(st.Gets-st.Puts) {
		t.Fatalf("FreeLen=%d inconsistent with stats %+v", got, st)
	}
	if pool.MemBytes() != pool.FreeLen()*ElemBytes {
		t.Fatalf("MemBytes=%d want FreeLen*ElemBytes=%d", pool.MemBytes(), pool.FreeLen()*ElemBytes)
	}
	for _, pm := range slots {
		pm.bm.ClearAll()
	}
	st = pool.Stats()
	if st.Gets != st.Puts {
		t.Fatalf("after clearing everything Gets=%d != Puts=%d", st.Gets, st.Puts)
	}
	if int64(pool.FreeLen()) != st.Chunks*chunkElems {
		t.Fatalf("free list %d should hold the whole population %d", pool.FreeLen(), st.Chunks*chunkElems)
	}
	// Recycling must actually have happened for this test to mean much.
	if st.Recycled == 0 {
		t.Fatalf("op sequence never recycled an element; stats %+v", st)
	}
}

// TestPoolRecycleReuses pins the free-list discipline: a freed element is
// handed back (zeroed) before any new chunk is carved.
func TestPoolRecycleReuses(t *testing.T) {
	pool := NewPool()
	b := NewIn(pool)
	for i := uint32(0); i < 10; i++ {
		b.Set(i * ElemBits)
	}
	chunksBefore := pool.Stats().Chunks
	b.ClearAll()
	for i := uint32(0); i < 10; i++ {
		b.Set(i * ElemBits * 2)
	}
	st := pool.Stats()
	if st.Chunks != chunksBefore {
		t.Fatalf("reallocation after ClearAll carved new chunks: %d -> %d", chunksBefore, st.Chunks)
	}
	if st.Recycled < 10 {
		t.Fatalf("expected ≥10 recycled elements, got %d", st.Recycled)
	}
	got := b.AppendTo(nil)
	if len(got) != 10 {
		t.Fatalf("recycled elements carried stale bits: %v", got)
	}
	for i, x := range got {
		if x != uint32(i)*ElemBits*2 {
			t.Fatalf("member %d = %d, want %d", i, x, uint32(i)*ElemBits*2)
		}
	}
}

// TestNilPool verifies the nil-pool compatibility contract: everything
// works, nothing is counted.
func TestNilPool(t *testing.T) {
	var p *Pool
	b := NewIn(p)
	b.Set(5)
	b.Set(500)
	b.ClearAll()
	b.Set(7)
	if got := b.AppendTo(nil); len(got) != 1 || got[0] != 7 {
		t.Fatalf("nil-pool bitmap misbehaved: %v", got)
	}
	if st := p.Stats(); st != (PoolStats{}) {
		t.Fatalf("nil pool reported stats %+v", st)
	}
	if p.FreeLen() != 0 || p.MemBytes() != 0 {
		t.Fatalf("nil pool reported storage")
	}
}

// TestCursorMatchesTest drives TestROAt with per-access-pattern cursors
// against Test over random content, including re-use of one cursor across
// ascending, descending and random probe orders.
func TestCursorMatchesTest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := New()
	ref := map[uint32]bool{}
	for i := 0; i < 2000; i++ {
		x := uint32(rng.Intn(1 << 14))
		b.Set(x)
		ref[x] = true
	}
	var c Cursor
	probe := func(x uint32) {
		if got := b.TestROAt(x, &c); got != ref[x] {
			t.Fatalf("TestROAt(%d)=%v want %v", x, got, ref[x])
		}
	}
	for x := uint32(0); x < 1<<14; x += 37 {
		probe(x)
	}
	for x := int64(1<<14 - 1); x >= 0; x -= 53 {
		probe(uint32(x))
	}
	for i := 0; i < 5000; i++ {
		probe(uint32(rng.Intn(1 << 15))) // include out-of-range probes
	}
	c.Reset()
	probe(0)
}

// TestCursorConcurrentReaders runs many readers with private cursors (plus
// TestRO readers) against one frozen bitmap. Run under -race, this is the
// proof that the cursor path is write-free.
func TestCursorConcurrentReaders(t *testing.T) {
	b := New()
	ref := map[uint32]bool{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		x := uint32(rng.Intn(1 << 15))
		b.Set(x)
		ref[x] = true
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var c Cursor
			for i := 0; i < 20000; i++ {
				x := uint32(rng.Intn(1 << 15))
				var got bool
				if seed%2 == 0 {
					got = b.TestROAt(x, &c)
				} else {
					got = b.TestRO(x)
				}
				if got != ref[x] {
					t.Errorf("reader %d: probe(%d)=%v want %v", seed, x, got, ref[x])
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// BenchmarkTestROAt measures cursor-hinted read-only probes in ascending
// order — the access pattern of the parallel compute phase — against the
// cursor-less TestRO baseline below. Run with -race to bound the
// instrumented cost too.
func BenchmarkTestROAt(b *testing.B) {
	bm := New()
	for i := uint32(0); i < 1<<16; i += 3 {
		bm.Set(i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var c Cursor
		x := uint32(0)
		for pb.Next() {
			bm.TestROAt(x, &c)
			x = (x + 5) & (1<<16 - 1)
		}
	})
}

func BenchmarkTestRO(b *testing.B) {
	bm := New()
	for i := uint32(0); i < 1<<16; i += 3 {
		bm.Set(i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := uint32(0)
		for pb.Next() {
			bm.TestRO(x)
			x = (x + 5) & (1<<16 - 1)
		}
	})
}

func TestSlabCopiesOutOfThePool(t *testing.T) {
	pool := NewPool()
	srcs := make([]*Bitmap, 5)
	total := 0
	for i := range srcs {
		srcs[i] = NewIn(pool)
		for k := 0; k < i*9; k++ {
			srcs[i].Set(uint32(k*k*13 + i))
		}
		total += srcs[i].Elements()
	}
	slab := NewSlab(total)
	dsts := make([]Bitmap, len(srcs))
	for i, src := range srcs {
		slab.CopyTo(&dsts[i], src)
	}
	if len(slab.elems) != 0 {
		t.Fatalf("%d slab elements left over from an exactly sized slab", len(slab.elems))
	}
	want := make([][]uint32, len(srcs))
	for i, src := range srcs {
		if !dsts[i].Equal(src) || dsts[i].pool != nil {
			t.Fatalf("copy %d: %v (pool %p), source %v", i, &dsts[i], dsts[i].pool, src)
		}
		want[i] = src.Slice()
		src.ClearAll()
	}
	// The sources' elements are back in the pool; reusing them must not
	// reach the copies, and writing the copies must not reach the pool.
	for i := range srcs {
		for k := 0; k < 50; k++ {
			srcs[i].Set(uint32(k * 7))
		}
	}
	stats := pool.Stats()
	for i := range dsts {
		if !reflect.DeepEqual(dsts[i].Slice(), want[i]) {
			t.Fatalf("copy %d changed to %v, want %v", i, dsts[i].Slice(), want[i])
		}
		dsts[i].Set(1 << 20)
		dsts[i].ClearAll()
	}
	if pool.Stats() != stats {
		t.Fatal("writing a slab copy reached the source pool")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("copying into a full slab did not panic")
		}
	}()
	slab.CopyTo(&dsts[0], srcs[1])
}
