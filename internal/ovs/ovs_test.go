package ovs

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"antgrass/internal/constraint"
	"antgrass/internal/core"
	"antgrass/internal/synth"
)

// solveWithPreUnions solves a (possibly reduced) program after applying the
// OVS pre-unions through the HCD table mechanism.
func solveReduced(t *testing.T, r *Result) *core.Result {
	t.Helper()
	// Reuse the solver's pre-union support by handing the pairs over in
	// an HCD table with no online pairs.
	res, err := core.Solve(r.Reduced, core.Options{
		Algorithm: core.LCD,
		WithHCD:   true,
		HCDTable:  r.PreUnionTable(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCopyChainCollapses(t *testing.T) {
	p := constraint.NewProgram()
	o := p.AddVar("o")
	x0 := p.AddVar("x0")
	p.AddAddrOf(x0, o)
	prev := x0
	for i := 1; i < 10; i++ {
		v := p.AddVar(fmt.Sprintf("x%d", i))
		p.AddCopy(v, prev)
		prev = v
	}
	r := Reduce(p)
	// The whole chain is pointer-equivalent: every copy disappears.
	if r.After >= r.Before {
		t.Fatalf("no reduction: before=%d after=%d", r.Before, r.After)
	}
	na, nc, _, _ := r.Reduced.Counts()
	if nc != 0 {
		t.Errorf("copy chain should vanish, still %d copies", nc)
	}
	if na != 1 {
		t.Errorf("addr constraints = %d, want 1", na)
	}
	if len(r.PreUnions) != 9 {
		t.Errorf("PreUnions = %d, want 9", len(r.PreUnions))
	}
	// Solution preserved for every original variable.
	want, err := core.Solve(p, core.Options{Algorithm: core.LCD})
	if err != nil {
		t.Fatal(err)
	}
	got := solveReduced(t, r)
	for v := uint32(0); v < uint32(p.NumVars); v++ {
		if !reflect.DeepEqual(got.PointsToSlice(v), want.PointsToSlice(v)) {
			t.Errorf("pts(%s): %v != %v", p.NameOf(v), got.PointsToSlice(v), want.PointsToSlice(v))
		}
	}
}

func TestEmptyLabelPruning(t *testing.T) {
	p := constraint.NewProgram()
	a := p.AddVar("a") // never receives anything: label 0
	b := p.AddVar("b")
	c := p.AddVar("c")
	p.AddCopy(b, a)    // b ⊇ ∅: prunable
	p.AddLoad(c, a, 0) // *∅: prunable
	p.AddStore(a, b, 0)
	r := Reduce(p)
	if r.After != 0 {
		t.Errorf("all constraints prunable, kept %d: %v", r.After, r.Reduced.Constraints)
	}
}

func TestAddressTakenNotUnified(t *testing.T) {
	p := constraint.NewProgram()
	x := p.AddVar("x")
	y := p.AddVar("y")
	q := p.AddVar("q")
	// x and y both copy from q, but x is address-taken: a later store
	// through a pointer to x could change x alone, so x must keep a
	// fresh label and stay un-unified with y.
	h := p.AddVar("h")
	p.AddAddrOf(q, h)
	p.AddCopy(x, q)
	p.AddCopy(y, q)
	pp := p.AddVar("p")
	p.AddAddrOf(pp, x) // x address-taken
	r := Reduce(p)
	for _, pu := range r.PreUnions {
		if pu[0] == x || pu[1] == x {
			t.Errorf("address-taken x unified: %v", r.PreUnions)
		}
	}
	_ = y
}

func TestSiblingCopiesUnify(t *testing.T) {
	p := constraint.NewProgram()
	o := p.AddVar("o")
	src := p.AddVar("src")
	p.AddAddrOf(src, o)
	a := p.AddVar("a")
	b := p.AddVar("b")
	p.AddCopy(a, src)
	p.AddCopy(b, src)
	r := Reduce(p)
	// a, b, src are pointer-equivalent: one group of three.
	if len(r.PreUnions) != 2 {
		t.Errorf("PreUnions = %v, want 2 pairs", r.PreUnions)
	}
}

func TestStructuralCycleUnifies(t *testing.T) {
	p := constraint.NewProgram()
	o := p.AddVar("o")
	x := p.AddVar("x")
	y := p.AddVar("y")
	p.AddAddrOf(x, o)
	p.AddCopy(y, x)
	p.AddCopy(x, y)
	r := Reduce(p)
	found := false
	for _, pu := range r.PreUnions {
		if (pu[0] == x && pu[1] == y) || (pu[0] == y && pu[1] == x) {
			found = true
		}
	}
	if !found {
		t.Errorf("copy cycle not unified: %v", r.PreUnions)
	}
}

func randomProgram(rng *rand.Rand) *constraint.Program {
	p := constraint.NewProgram()
	var funcs []uint32
	for i := 0; i < rng.Intn(3); i++ {
		funcs = append(funcs, p.AddFunc(fmt.Sprintf("f%d", i), rng.Intn(3)))
	}
	for i := 0; i < 3+rng.Intn(15); i++ {
		p.AddVar("")
	}
	n := uint32(p.NumVars)
	for i := 0; i < rng.Intn(45); i++ {
		d, s := uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n)))
		switch rng.Intn(8) {
		case 0, 1:
			p.AddAddrOf(d, s)
		case 2, 3, 4:
			p.AddCopy(d, s)
		case 5:
			p.AddLoad(d, s, 0)
		case 6:
			p.AddStore(d, s, 0)
		case 7:
			if len(funcs) > 0 {
				off := uint32(1 + rng.Intn(3))
				if rng.Intn(2) == 0 {
					p.AddLoad(d, s, off)
				} else {
					p.AddStore(d, s, off)
				}
			}
		}
	}
	return p
}

// TestQuickSolutionPreserved is the soundness property: for every original
// variable, solving the reduced system (plus pre-unions) gives exactly the
// original solution.
func TestQuickSolutionPreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		if p.Validate() != nil {
			return true
		}
		r := Reduce(p)
		if r.Reduced.Validate() != nil {
			t.Logf("seed %d: reduced program invalid", seed)
			return false
		}
		if r.After > r.Before {
			t.Logf("seed %d: constraint count grew", seed)
			return false
		}
		want, err := core.Solve(p, core.Options{Algorithm: core.LCD})
		if err != nil {
			return false
		}
		got, err := core.Solve(r.Reduced, core.Options{
			Algorithm: core.LCD, WithHCD: true, HCDTable: r.PreUnionTable(),
		})
		if err != nil {
			return false
		}
		for v := uint32(0); v < uint32(p.NumVars); v++ {
			g, w := got.PointsToSlice(v), want.PointsToSlice(v)
			if len(g) == 0 && len(w) == 0 {
				continue
			}
			if !reflect.DeepEqual(g, w) {
				t.Logf("seed %d: pts(v%d) = %v, want %v", seed, v, g, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestReductionPercent(t *testing.T) {
	r := &Result{Before: 100, After: 30}
	if r.ReductionPercent() != 70 {
		t.Errorf("ReductionPercent = %v", r.ReductionPercent())
	}
	if (&Result{}).ReductionPercent() != 0 {
		t.Error("empty result should report 0")
	}
}

// TestPreUnionsRepeat holds repeat calls on one program to the same
// pre-unions in the same order: groups in the order of their smallest
// member, which leads, so the pairs come out sorted.
func TestPreUnionsRepeat(t *testing.T) {
	prof, _ := synth.ProfileByName("ghostscript")
	p := synth.Generate(prof.Scale(0.05))
	first := Reduce(p).PreUnions
	if len(first) == 0 {
		t.Fatal("no pre-unions to compare")
	}
	if !slices.IsSortedFunc(first, func(a, b [2]uint32) int {
		if a[0] != b[0] {
			return cmp.Compare(a[0], b[0])
		}
		return cmp.Compare(a[1], b[1])
	}) {
		t.Error("pre-unions are not in the order of their groups' smallest members")
	}
	for i := 0; i < 20; i++ {
		if again := Reduce(p).PreUnions; !slices.Equal(again, first) {
			t.Fatalf("call %d: %d pre-unions differ from the first call's %d", i+2, len(again), len(first))
		}
	}
}
