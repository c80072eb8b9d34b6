package memo

import (
	"testing"

	"antgrass/internal/pts"
)

func newSet(f pts.Factory, xs ...uint32) pts.Set {
	s := f.New()
	for _, x := range xs {
		s.Insert(x)
	}
	return s
}

// TestTableUnionHit: the second union of equal-content operands is
// answered from the cache — the destination adopts the cached result and
// the cached changed bit is replayed — and the result is bit-identical
// to recomputing.
func TestTableUnionHit(t *testing.T) {
	f := pts.NewBitmapFactory()
	tbl := NewTable()
	defer tbl.Release()

	src := newSet(f, 300, 40000)
	d1 := newSet(f, 1, 2)
	if ch, ok := tbl.Union(d1, src); !ok || !ch {
		t.Fatalf("first Union = (%v, %v), want (true, true)", ch, ok)
	}
	d2 := newSet(f, 1, 2) // same content, different backing
	if ch, ok := tbl.Union(d2, src); !ok || !ch {
		t.Fatalf("second Union = (%v, %v), want (true, true)", ch, ok)
	}
	want := []uint32{1, 2, 300, 40000}
	for _, d := range []pts.Set{d1, d2} {
		got := d.Slice()
		if len(got) != len(want) {
			t.Fatalf("result = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("result = %v, want %v", got, want)
			}
		}
	}
	st := tbl.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("stats.Bytes = %d, want > 0 with a cached result", st.Bytes)
	}

	// A hit must hand out an independent COW share: writing d2 afterwards
	// must not corrupt the cached result d1 still shares.
	d2.Insert(77777)
	if d1.Contains(77777) {
		t.Fatal("write to memo-hit destination leaked into sibling")
	}
}

// TestTableUnionUnchanged: a subset union caches changed=false with no
// result set, and the no-change bit replays on the hit.
func TestTableUnionUnchanged(t *testing.T) {
	f := pts.NewBitmapFactory()
	tbl := NewTable()
	defer tbl.Release()

	src := newSet(f, 2)
	d1 := newSet(f, 1, 2, 3)
	if ch, ok := tbl.Union(d1, src); !ok || ch {
		t.Fatalf("subset Union = (%v, %v), want (false, true)", ch, ok)
	}
	d2 := newSet(f, 1, 2, 3)
	if ch, ok := tbl.Union(d2, src); !ok || ch {
		t.Fatalf("memoized subset Union = (%v, %v), want (false, true)", ch, ok)
	}
	if got := d2.Len(); got != 3 {
		t.Fatalf("destination grew to %d elements on a no-op union", got)
	}
	if st := tbl.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want the no-change entry to hit", st)
	}
}

// TestTableIdentities: empty source and equal operands are answered
// without cache entries, and representations the engine cannot intern
// make every operation refuse (ok=false) so callers fall back.
func TestTableIdentities(t *testing.T) {
	f := pts.NewBitmapFactory()
	tbl := NewTable()
	defer tbl.Release()

	d := newSet(f, 1)
	if ch, ok := tbl.Union(d, f.New()); !ok || ch {
		t.Fatalf("union with empty source = (%v, %v), want (false, true)", ch, ok)
	}
	same := newSet(f, 1)
	if ch, ok := tbl.Union(d, same); !ok || ch {
		t.Fatalf("union of equal contents = (%v, %v), want (false, true)", ch, ok)
	}
	if st := tbl.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("identity unions touched the cache: %+v", st)
	}

	plain := pts.NewPlainBitmapFactory()
	pd, ps := newSet(plain, 1), newSet(plain, 2)
	if _, ok := tbl.Union(pd, ps); ok {
		t.Fatal("Union accepted plain-factory sets")
	}
	if _, ok := tbl.Diff(pd, ps); ok {
		t.Fatal("Diff accepted plain-factory sets")
	}
	if _, ok := tbl.OffsetDeref(pd, 1, pd.Slice(), func(v, off uint32) (uint32, bool) { return v, true }); ok {
		t.Fatal("OffsetDeref accepted plain-factory sets")
	}
}

// TestTableDiff: the difference is cached, the hit returns a fresh set
// the caller owns, and writing the returned set does not corrupt the
// cached copy served to later hits.
func TestTableDiff(t *testing.T) {
	f := pts.NewBitmapFactory()
	tbl := NewTable()
	defer tbl.Release()

	a := newSet(f, 1, 2, 3, 500)
	b := newSet(f, 2, 500)
	r1, ok := tbl.Diff(a, b)
	if !ok {
		t.Fatal("Diff refused COW bitmap sets")
	}
	want := []uint32{1, 3}
	check := func(r pts.Set) {
		t.Helper()
		got := r.Slice()
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("diff = %v, want %v", got, want)
		}
	}
	check(r1)
	r1.Insert(999) // caller owns the result; the cache must not see this

	a2 := newSet(f, 1, 2, 3, 500)
	r2, _ := tbl.Diff(a2, b)
	check(r2)
	if st := tbl.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// a \ ∅ is an identity: a COW copy, no cache entry.
	r3, _ := tbl.Diff(a2, f.New())
	if !r3.Equal(a2) {
		t.Fatalf("a \\ empty = %v, want %v", r3.Slice(), a2.Slice())
	}
}

// TestTableOffsetDeref: the expansion is computed once per (set, offset)
// and the cached target slice is served to hits.
func TestTableOffsetDeref(t *testing.T) {
	f := pts.NewBitmapFactory()
	tbl := NewTable()
	defer tbl.Release()

	calls := 0
	valid := func(v, off uint32) (uint32, bool) {
		calls++
		if v%2 == 0 {
			return v + off, true
		}
		return 0, false
	}
	w := newSet(f, 2, 3, 10)
	ts, ok := tbl.OffsetDeref(w, 5, w.Slice(), valid)
	if !ok {
		t.Fatal("OffsetDeref refused a COW bitmap set")
	}
	if len(ts) != 2 || ts[0] != 7 || ts[1] != 15 {
		t.Fatalf("targets = %v, want [7 15]", ts)
	}
	w2 := newSet(f, 2, 3, 10)
	ts2, _ := tbl.OffsetDeref(w2, 5, w2.Slice(), valid)
	if calls != 3 {
		t.Fatalf("validity predicate ran %d times, want 3 (hit must not recompute)", calls)
	}
	if len(ts2) != 2 || ts2[0] != 7 || ts2[1] != 15 {
		t.Fatalf("memoized targets = %v, want [7 15]", ts2)
	}
	// A different offset on the same set is a different operation.
	if ts3, _ := tbl.OffsetDeref(w, 1, w.Slice(), valid); len(ts3) != 2 || ts3[0] != 3 {
		t.Fatalf("offset-1 targets = %v, want [3 11]", ts3)
	}
}

// TestTableReleaseEvicts: Release drops every entry (counted as
// evictions) and zeroes the held-bytes accounting; the table stays
// usable afterwards.
func TestTableReleaseEvicts(t *testing.T) {
	f := pts.NewBitmapFactory()
	tbl := NewTable()
	d := newSet(f, 1)
	tbl.Union(d, newSet(f, 2))
	tbl.Diff(newSet(f, 1, 2), newSet(f, 2))
	tbl.Release()
	st := tbl.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if st.Bytes != 0 {
		t.Fatalf("bytes = %d after Release, want 0", st.Bytes)
	}
	if ch, ok := tbl.Union(newSet(f, 9), newSet(f, 10)); !ok || !ch {
		t.Fatal("table unusable after Release")
	}
}
