package pts

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// freezeFixture builds a deduplicated solution-like slice of sets from one
// pooled factory: random contents with many duplicates (so Dedup folds
// them onto shared backings), some handles sharing by SubtractCopy(nil),
// and nil and empty slots. It returns the factory, the source handles and
// a frozen copy of the slice.
func freezeFixture(t *testing.T, seed int64) (*bitmapFactory, []Set, []Set) {
	t.Helper()
	f := NewBitmapFactory().(*bitmapFactory)
	rng := rand.New(rand.NewSource(seed))
	src := make([]Set, 300)
	for i := range src {
		switch rng.Intn(8) {
		case 0:
			continue // nil slot
		case 1:
			if i > 0 && src[i-1] != nil {
				src[i] = src[i-1].SubtractCopy(nil)
				continue
			}
		}
		s := f.New()
		shape := rng.Intn(6) // few shapes, so many sets are content-equal
		for k := 0; k < shape*7; k++ {
			s.Insert(uint32((shape*131 + k*k*37) % 2000))
		}
		src[i] = s
	}
	for _, s := range src {
		if s != nil {
			Dedup(s)
		}
	}
	frozen := append([]Set(nil), src...)
	Freeze(frozen)
	return f, src, frozen
}

func TestFreezeSharesOneCopyPerBacking(t *testing.T) {
	_, src, frozen := freezeFixture(t, 1)
	copyOf := map[*sharedBM]*sharedBM{}
	shared := 0
	for i, s := range src {
		if s == nil {
			if frozen[i] != nil {
				t.Fatalf("slot %d: nil set froze to %v", i, frozen[i])
			}
			continue
		}
		sb, fb := asBitmapSet(t, s), asBitmapSet(t, frozen[i])
		if fb.s == sb.s || fb.f == sb.f {
			t.Fatalf("slot %d: the frozen set still uses its source backing or factory", i)
		}
		if c, seen := copyOf[sb.s]; seen {
			shared++
			if c != fb.s {
				t.Fatalf("slot %d: handles that shared a backing got different copies", i)
			}
		}
		copyOf[sb.s] = fb.s
	}
	if shared == 0 {
		t.Fatal("fixture has no shared backings; the test checks nothing")
	}
	// Distinct source backings got distinct copies.
	seen := map[*sharedBM]bool{}
	for _, c := range copyOf {
		if seen[c] {
			t.Fatal("two distinct backings were frozen onto one copy")
		}
		seen[c] = true
	}
	for i := range src {
		for j := range src {
			if src[i] == nil || src[j] == nil {
				continue
			}
			ps := asBitmapSet(t, src[i]).s == asBitmapSet(t, src[j]).s
			pf := asBitmapSet(t, frozen[i]).s == asBitmapSet(t, frozen[j]).s
			if ps != pf {
				t.Fatalf("slots %d,%d: pointer-equality %v before freezing, %v after", i, j, ps, pf)
			}
		}
	}
}

func TestFreezeMatchesSource(t *testing.T) {
	_, src, frozen := freezeFixture(t, 2)
	for i, s := range src {
		if s == nil {
			continue
		}
		fz := frozen[i]
		if !reflect.DeepEqual(fz.Slice(), s.Slice()) || fz.Len() != s.Len() {
			t.Fatalf("slot %d: frozen %v (len %d), source %v (len %d)", i, fz.Slice(), fz.Len(), s.Slice(), s.Len())
		}
		for x := uint32(0); x < 2100; x += 3 {
			if ContainsRO(fz, x) != s.Contains(x) {
				t.Fatalf("slot %d: Contains(%d) differs", i, x)
			}
		}
		for j, o := range src {
			if o == nil {
				continue
			}
			if fz.Intersects(frozen[j]) != s.Intersects(o) {
				t.Fatalf("slots %d,%d: Intersects differs", i, j)
			}
			if fz.Equal(frozen[j]) != s.Equal(o) {
				t.Fatalf("slots %d,%d: Equal differs", i, j)
			}
		}
	}
}

func TestFreezeSurvivesSourceMutation(t *testing.T) {
	f, src, frozen := freezeFixture(t, 3)
	want := make([][]uint32, len(frozen))
	for i, s := range frozen {
		if s != nil {
			want[i] = s.Slice()
		}
	}
	// Mutate half of the sources in place, clear and release the rest,
	// then churn the pool so every freed element is recycled into new
	// sets with other contents.
	for i, s := range src {
		if s == nil {
			continue
		}
		if i%2 == 0 {
			s.Insert(uint32(5000 + i))
			if o := src[(i+7)%len(src)]; o != nil {
				s.UnionWith(o)
			}
		} else {
			Release(s)
			src[i] = nil
		}
	}
	churn := make([]Set, 200)
	for i := range churn {
		churn[i] = f.New()
		for k := 0; k < 40; k++ {
			churn[i].Insert(uint32(i*k) % 3000)
		}
	}
	runtime.GC()
	for i, s := range frozen {
		if s != nil && !reflect.DeepEqual(s.Slice(), want[i]) {
			t.Fatalf("slot %d: frozen set changed from %v to %v", i, want[i], s.Slice())
		}
	}
	runtime.KeepAlive(churn)
}

func TestFreezeWritesNeverReachSourceFactory(t *testing.T) {
	f, src, frozen := freezeFixture(t, 4)
	want := make([][]uint32, len(src))
	for i, s := range src {
		if s != nil {
			want[i] = s.Slice()
		}
	}
	before, freeLen := f.AllocStats(), f.pool.FreeLen()
	buckets := len(f.dedup)
	for i, s := range frozen {
		if s == nil {
			continue
		}
		s.Insert(uint32(7000 + i))
		Dedup(s)
		if i%3 == 0 {
			Release(s)
		}
	}
	if after := f.AllocStats(); after != before {
		t.Fatalf("source factory counters moved: %+v -> %+v", before, after)
	}
	if f.pool.FreeLen() != freeLen || len(f.dedup) != buckets {
		t.Fatal("writes to frozen sets reached the source pool or dedup table")
	}
	for i, s := range src {
		if s != nil && !reflect.DeepEqual(s.Slice(), want[i]) {
			t.Fatalf("slot %d: source changed from %v to %v", i, want[i], s.Slice())
		}
	}
}

func TestFreezeLeavesOtherRepresentations(t *testing.T) {
	bf := NewBDDFactory(64, 0)
	b := bf.New()
	b.Insert(3)
	sets := []Set{nil, b}
	Freeze(sets)
	if sets[0] != nil || sets[1] != b {
		t.Fatal("Freeze touched a nil slot or a BDD set")
	}
}
