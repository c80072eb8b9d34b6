package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"antgrass/internal/constraint"
)

// TestLiveAddCycleThroughFreshVars: each delta appends fresh variables
// that close a copy cycle through variables of the original program, so
// the resumed LCD search visits ids at or above the graph's first n after
// an earlier search has already sized the graph's search state. The cycle
// must collapse, and the solution must equal a from-scratch solve of the
// extended program.
func TestLiveAddCycleThroughFreshVars(t *testing.T) {
	ctx := context.Background()
	p := constraint.NewProgram()
	o := p.AddVar("o")
	a := p.AddVar("a")
	b := p.AddVar("b")
	x := p.AddVar("x")
	y := p.AddVar("y")
	p.AddAddrOf(a, o) // a = &o
	p.AddCopy(b, a)   // b = a
	p.AddAddrOf(y, o) // y = &o, and x, y form a cycle the first solve
	p.AddCopy(x, y)   // collapses, so the graph's searcher is already
	p.AddCopy(y, x)   // sized to the original n
	l, err := NewLive(ctx, p, Options{Algorithm: LCD})
	if err != nil {
		t.Fatal(err)
	}
	n0 := uint32(p.NumVars)
	if l.g.find(x) != l.g.find(y) {
		t.Fatal("the first solve left the x, y cycle uncollapsed")
	}
	for round := 0; round < 3; round++ {
		collapsed := l.Stats().NodesCollapsed
		before := len(p.Constraints)
		// a → b → f1 → f2 → a: the new edges carry pts(a) around
		// until pts(f2) = pts(a), and the LCD trigger on f2 → a
		// searches the whole cycle.
		f1 := p.AddVar(fmt.Sprintf("f1_%d", round))
		f2 := p.AddVar(fmt.Sprintf("f2_%d", round))
		p.AddCopy(f1, b)
		p.AddCopy(f2, f1)
		p.AddCopy(a, f2)
		if err := l.Add(ctx, p.Constraints[before:]); err != nil {
			t.Fatal(err)
		}
		if got := l.Stats().NodesCollapsed; got <= collapsed {
			t.Fatalf("round %d: NodesCollapsed %d → %d, want growth", round, collapsed, got)
		}
		if f1 < n0 || l.g.find(f1) != l.g.find(a) || l.g.find(f2) != l.g.find(a) {
			t.Fatalf("round %d: fresh vars %d, %d not collapsed with a", round, f1, f2)
		}
		want, err := Solve(p, Options{Algorithm: LCD})
		if err != nil {
			t.Fatal(err)
		}
		got := l.Result()
		for v := uint32(0); v < uint32(p.NumVars); v++ {
			if g, w := got.PointsToSlice(v), want.PointsToSlice(v); !reflect.DeepEqual(g, w) {
				t.Fatalf("round %d: pts(%s) = %v, from scratch %v", round, p.NameOf(v), g, w)
			}
		}
	}
}
