package hvn

import (
	"math/rand"
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/synth"
)

// unioned reports whether Reduce merged a and b (directly or through a
// shared representative).
func unioned(r *Result, a, b uint32) bool {
	rep := map[uint32]uint32{}
	find := func(v uint32) uint32 {
		for {
			p, ok := rep[v]
			if !ok {
				return v
			}
			v = p
		}
	}
	for _, pu := range r.PreUnions {
		rep[find(pu[1])] = find(pu[0])
	}
	return find(a) == find(b)
}

// reduceBoth runs p through HVN and HU and hands both results to check.
func reduceBoth(t *testing.T, p *constraint.Program, check func(t *testing.T, mode string, r *Result)) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid test program: %v", err)
	}
	for _, mode := range []string{"hvn", "hu"} {
		r := Reduce(p, mode == "hu")
		if err := r.Reduced.Validate(); err != nil {
			t.Fatalf("%s: reduced program invalid: %v", mode, err)
		}
		check(t, mode, r)
	}
}

// TestCopyChain is the basic value-numbering collapse: a = &x; b = a;
// c = b gives a, b, c identical points-to sets, so both modes merge the
// chain down to a single addr-of constraint.
func TestCopyChain(t *testing.T) {
	p := constraint.NewProgram()
	x := p.AddVar("x")
	a := p.AddVar("a")
	b := p.AddVar("b")
	c := p.AddVar("c")
	p.AddAddrOf(a, x)
	p.AddCopy(b, a)
	p.AddCopy(c, b)
	reduceBoth(t, p, func(t *testing.T, mode string, r *Result) {
		if !unioned(r, a, b) || !unioned(r, a, c) {
			t.Fatalf("%s: want {a,b,c} merged, got pre-unions %v", mode, r.PreUnions)
		}
		if r.MergedVars != 2 {
			t.Fatalf("%s: MergedVars = %d, want 2", mode, r.MergedVars)
		}
		if r.After != 1 {
			t.Fatalf("%s: After = %d constraints, want 1 (the addr-of); got %v",
				mode, r.After, r.Reduced.Constraints)
		}
	})
}

// TestLoadTargetsShareLabel: two loads through the same pointer have
// identical solutions, so their destinations merge (the ref node's fresh
// label reaches both as a singleton).
func TestLoadTargetsShareLabel(t *testing.T) {
	p := constraint.NewProgram()
	x := p.AddVar("x")
	q := p.AddVar("q")
	a := p.AddVar("a")
	b := p.AddVar("b")
	p.AddAddrOf(q, x)
	p.AddLoad(a, q, 0)
	p.AddLoad(b, q, 0)
	reduceBoth(t, p, func(t *testing.T, mode string, r *Result) {
		if !unioned(r, a, b) {
			t.Fatalf("%s: want a,b merged, got pre-unions %v", mode, r.PreUnions)
		}
		if r.After != 2 {
			t.Fatalf("%s: After = %d, want 2 (addr + one load); got %v",
				mode, r.After, r.Reduced.Constraints)
		}
	})
}

// TestHUBeyondHVN is the companion paper's motivating pattern for union
// evaluation: with a = &x; a = &y; b = a; b = &x; b = &y, HVN sees
// pe(b) = {x, y, pe(a)} ≠ {x, y} = pe(a) — the unevaluated label of a
// hides that it contributes nothing new — while HU evaluates both sides
// to {x, y} and merges a with b.
func TestHUBeyondHVN(t *testing.T) {
	p := constraint.NewProgram()
	x := p.AddVar("x")
	y := p.AddVar("y")
	a := p.AddVar("a")
	b := p.AddVar("b")
	p.AddAddrOf(a, x)
	p.AddAddrOf(a, y)
	p.AddCopy(b, a)
	p.AddAddrOf(b, x)
	p.AddAddrOf(b, y)

	hvn := Reduce(p, false)
	if unioned(hvn, a, b) {
		t.Fatalf("hvn: a,b merged; HVN should not evaluate the union")
	}
	hu := Reduce(p, true)
	if !unioned(hu, a, b) {
		t.Fatalf("hu: want a,b merged, got pre-unions %v", hu.PreUnions)
	}
	// After unification the two addr-of pairs collapse: {addr a x, addr a y}.
	if hu.After != 2 {
		t.Fatalf("hu: After = %d, want 2; got %v", hu.After, hu.Reduced.Constraints)
	}
}

// TestImplicitEdgeRefSCC: a copy cycle a ↔ b puts ref(a) and ref(b) in one
// implicit-edge SCC, so loads through either pointer merge — a merge the
// downstream OVS pass (no implicit edges) cannot see.
func TestImplicitEdgeRefSCC(t *testing.T) {
	p := constraint.NewProgram()
	x := p.AddVar("x")
	a := p.AddVar("a")
	b := p.AddVar("b")
	c := p.AddVar("c")
	d := p.AddVar("d")
	p.AddAddrOf(a, x)
	p.AddCopy(b, a)
	p.AddCopy(a, b)
	p.AddLoad(c, a, 0)
	p.AddLoad(d, b, 0)
	reduceBoth(t, p, func(t *testing.T, mode string, r *Result) {
		if !unioned(r, a, b) {
			t.Fatalf("%s: want the copy cycle a,b merged; got %v", mode, r.PreUnions)
		}
		if !unioned(r, c, d) {
			t.Fatalf("%s: want load targets c,d merged via the ref SCC; got %v", mode, r.PreUnions)
		}
	})
}

// TestNonPointerConstraintsDropped: variables no address ever reaches have
// provably empty points-to sets; copies from them and loads through them
// are deleted outright.
func TestNonPointerConstraintsDropped(t *testing.T) {
	p := constraint.NewProgram()
	a := p.AddVar("a") // never a pointer
	b := p.AddVar("b")
	c := p.AddVar("c")
	p.AddCopy(b, a)
	p.AddLoad(c, b, 0)
	reduceBoth(t, p, func(t *testing.T, mode string, r *Result) {
		if r.After != 0 {
			t.Fatalf("%s: After = %d, want 0; got %v", mode, r.After, r.Reduced.Constraints)
		}
		if r.DroppedConstraints != 2 {
			t.Fatalf("%s: DroppedConstraints = %d, want 2", mode, r.DroppedConstraints)
		}
		if r.NonPointerVars < 2 {
			t.Fatalf("%s: NonPointerVars = %d, want ≥ 2 (a and b)", mode, r.NonPointerVars)
		}
	})
}

// TestIndirectBlocksMerging: address-taken variables can grow through
// store constraints the offline graph does not model, so two of them never
// merge with each other even when their offline pictures look identical.
func TestIndirectBlocksMerging(t *testing.T) {
	p := constraint.NewProgram()
	x := p.AddVar("x")
	y := p.AddVar("y")
	s := p.AddVar("s")
	t1 := p.AddVar("t1")
	t2 := p.AddVar("t2")
	z := p.AddVar("z")
	p.AddAddrOf(t1, x) // x, y address-taken, otherwise symmetric
	p.AddAddrOf(t2, y)
	p.AddAddrOf(s, z)
	p.AddStore(t1, s, 0) // *t1 = s: only x gains {z} online
	reduceBoth(t, p, func(t *testing.T, mode string, r *Result) {
		if unioned(r, x, y) {
			t.Fatalf("%s: merged address-taken x,y — unsound (only x receives the store)", mode)
		}
		if unioned(r, t1, t2) {
			t.Fatalf("%s: merged t1,t2 with different pointees", mode)
		}
	})
}

// TestOffsetLoadDstIndirect: an offset dereference resolves through
// function spans the offline graph cannot predict, so its destination
// must not merge with a same-shaped offset-0 destination.
func TestOffsetLoadDstIndirect(t *testing.T) {
	p := constraint.NewProgram()
	f := p.AddFunc("f", 1) // f, f$ret, f$arg0
	fp := p.AddVar("fp")
	r0 := p.AddVar("r0")
	r1 := p.AddVar("r1")
	p.AddAddrOf(fp, f)
	p.AddLoad(r0, fp, 0)
	p.AddLoad(r1, fp, constraint.RetOffset)
	reduceBoth(t, p, func(t *testing.T, mode string, r *Result) {
		if unioned(r, r0, r1) {
			t.Fatalf("%s: merged offset-0 and offset-1 load targets", mode)
		}
		// The rewrite must keep the offset intact.
		found := false
		for _, c := range r.Reduced.Constraints {
			if c.Kind == constraint.Load && c.Offset == constraint.RetOffset {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: offset load lost in rewrite: %v", mode, r.Reduced.Constraints)
		}
	})
}

// TestHUFixpointEvaluation exercises union evaluation across a deeper
// dataflow: w reaches {m1, m2, m3} partly through an intermediate a whose
// own label is a hash-consed *set* {m1, m2}, while u lists all three
// locations directly. HVN compares the unevaluated sets {pe(a), m3} vs
// {m1, m2, m3} and keeps them apart; HU's fixpoint evaluation proves them
// equal.
func TestHUFixpointEvaluation(t *testing.T) {
	p := constraint.NewProgram()
	m1 := p.AddVar("m1")
	m2 := p.AddVar("m2")
	m3 := p.AddVar("m3")
	a := p.AddVar("a") // a = &m1; a = &m2 → consed label {m1,m2}
	w := p.AddVar("w") // w = a; w = &m3   → pts(w) = {m1, m2, m3}
	u := p.AddVar("u") // u = &m1; u = &m2; u = &m3
	p.AddAddrOf(a, m1)
	p.AddAddrOf(a, m2)
	p.AddCopy(w, a)
	p.AddAddrOf(w, m3)
	p.AddAddrOf(u, m1)
	p.AddAddrOf(u, m2)
	p.AddAddrOf(u, m3)

	hu := Reduce(p, true)
	if !unioned(hu, w, u) {
		t.Fatalf("hu: want w,u merged (both evaluate to {m1,m2,m3}); got %v", hu.PreUnions)
	}
	hvn := Reduce(p, false)
	if unioned(hvn, w, u) {
		t.Fatalf("hvn: w,u merged without union evaluation — labels should differ")
	}
}

// TestHVNHashCollision forces every label set into one hash bucket and
// checks the equality fallback still separates distinct sets (and still
// shares equal ones).
func TestHVNHashCollision(t *testing.T) {
	calls := 0
	defer CollideHashes(&calls)()

	p := constraint.NewProgram()
	x := p.AddVar("x")
	y := p.AddVar("y")
	z := p.AddVar("z")
	a := p.AddVar("a") // {x, y}
	b := p.AddVar("b") // {x, z} — same bucket, different set
	c := p.AddVar("c") // {x, y} — must share a's label
	p.AddAddrOf(a, x)
	p.AddAddrOf(a, y)
	p.AddAddrOf(b, x)
	p.AddAddrOf(b, z)
	p.AddAddrOf(c, x)
	p.AddAddrOf(c, y)

	r := Reduce(p, false)
	if calls != 3 {
		t.Fatalf("%d label sets hashed, want 3", calls)
	}
	if !unioned(r, a, c) {
		t.Fatalf("collision: equal sets {x,y} not shared; pre-unions %v", r.PreUnions)
	}
	if unioned(r, a, b) {
		t.Fatalf("collision: distinct sets {x,y} and {x,z} conflated into one label")
	}
}

// TestHUHashCollision is the same property for the HU intern table.
func TestHUHashCollision(t *testing.T) {
	calls := 0
	defer CollideHashes(&calls)()

	p := constraint.NewProgram()
	x := p.AddVar("x")
	y := p.AddVar("y")
	z := p.AddVar("z")
	a := p.AddVar("a")
	b := p.AddVar("b")
	c := p.AddVar("c")
	p.AddAddrOf(a, x)
	p.AddAddrOf(a, y)
	p.AddAddrOf(b, x)
	p.AddAddrOf(b, z)
	p.AddAddrOf(c, x)
	p.AddAddrOf(c, y)

	r := Reduce(p, true)
	if calls != 3 {
		t.Fatalf("%d evaluated sets hashed, want 3", calls)
	}
	if !unioned(r, a, c) {
		t.Fatalf("collision: equal evaluated sets not interned together; pre-unions %v", r.PreUnions)
	}
	if unioned(r, a, b) {
		t.Fatalf("collision: distinct evaluated sets conflated")
	}
}

// TestHUAtLeastAsStrongAsHVN: on random programs HU must never leave more
// constraints than HVN — its merges are a superset (equal HVN label sets
// evaluate to equal HU sets).
func TestHUAtLeastAsStrongAsHVN(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := synth.RandomProgram(rng)
		hvn := Reduce(p, false)
		hu := Reduce(p, true)
		if hu.After > hvn.After {
			t.Fatalf("seed %d: HU left %d constraints, HVN %d — HU must be at least as strong",
				seed, hu.After, hvn.After)
		}
		if hu.MergedVars < hvn.MergedVars {
			t.Fatalf("seed %d: HU merged %d vars, HVN %d", seed, hu.MergedVars, hvn.MergedVars)
		}
	}
}

// TestDeterministicPreUnions: the pass must emit identical pre-union lists
// across runs (map iteration must not leak into the output).
func TestDeterministicPreUnions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := synth.RandomProgram(rng)
	for _, hu := range []bool{false, true} {
		first := Reduce(p, hu)
		for i := 0; i < 5; i++ {
			again := Reduce(p, hu)
			if len(again.PreUnions) != len(first.PreUnions) {
				t.Fatalf("hu=%v: pre-union count changed between runs", hu)
			}
			for j := range first.PreUnions {
				if first.PreUnions[j] != again.PreUnions[j] {
					t.Fatalf("hu=%v: pre-union %d differs: %v vs %v",
						hu, j, first.PreUnions[j], again.PreUnions[j])
				}
			}
		}
	}
}

// TestReductionStats sanity-checks the bookkeeping fields on a program
// with all three effects: merging, dropping, dedup.
func TestReductionStats(t *testing.T) {
	p := constraint.NewProgram()
	x := p.AddVar("x")
	a := p.AddVar("a")
	b := p.AddVar("b")
	n := p.AddVar("n") // non-pointer
	d := p.AddVar("d")
	p.AddAddrOf(a, x)
	p.AddCopy(b, a)   // merges b into a → self-copy, dropped
	p.AddCopy(d, n)   // from a non-pointer, dropped
	p.AddAddrOf(b, x) // rewrites to addr a x, deduped
	reduceBoth(t, p, func(t *testing.T, mode string, r *Result) {
		if r.Before != 4 {
			t.Fatalf("%s: Before = %d, want 4", mode, r.Before)
		}
		if r.After != 1 {
			t.Fatalf("%s: After = %d, want 1; got %v", mode, r.After, r.Reduced.Constraints)
		}
		if r.DroppedConstraints != 2 {
			t.Fatalf("%s: DroppedConstraints = %d, want 2", mode, r.DroppedConstraints)
		}
		if got := r.ReductionPercent(); got != 75 {
			t.Fatalf("%s: ReductionPercent = %v, want 75", mode, got)
		}
	})
}
