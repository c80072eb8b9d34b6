// End-to-end gate for the Go front end: compile THIS repository with
// gogen, run the production pipeline (LCD + HCD + HVN/HU + OVS), and
// assert facts about the resulting callgraph, aliases and MOD/REF sets
// that the lowering rules guarantee. The test lives in an external
// package because it drives the antgrass facade, which itself imports
// internal/gogen.
package gogen_test

import (
	"context"
	"strings"
	"testing"

	"antgrass"
)

func solveSelf(t *testing.T) (*antgrass.Unit, *antgrass.Result) {
	t.Helper()
	u, err := antgrass.CompileGo(antgrass.GoOptions{Dir: "../.."})
	if err != nil {
		t.Fatalf("CompileGo: %v", err)
	}
	if len(u.Warnings) > 0 {
		t.Fatalf("self-analysis must be warning-free, got %d: %v", len(u.Warnings), u.Warnings[:min(3, len(u.Warnings))])
	}
	res, err := antgrass.Solve(context.Background(), u.Prog, antgrass.Options{
		Algorithm: antgrass.LCD, HCD: true, HVN: true, HU: true, OVS: true,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return u, res
}

func TestSelfAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and solves the whole repository")
	}
	u, res := solveSelf(t)

	edges := antgrass.CallGraph(u, res)
	var direct, indirect, selfClosure int
	type edge struct{ caller, callee string }
	have := map[edge]bool{}
	for _, e := range edges {
		if e.Indirect {
			indirect++
			// A closure invoked inside (or via a value returned to) the
			// function that created it: callee is caller::func@pos.
			if strings.HasPrefix(e.Callee, e.Caller+"::func@") {
				selfClosure++
			}
		} else {
			direct++
		}
		have[edge{e.Caller, e.Callee}] = true
	}
	if direct < 1000 || indirect < 100 {
		t.Fatalf("callgraph implausibly small: %d direct, %d indirect", direct, indirect)
	}
	if selfClosure < 50 {
		t.Errorf("expected >=50 closure self-edges (caller invoking its own func literal), got %d", selfClosure)
	}

	// Known direct edges through the public facade.
	for _, want := range []edge{
		{"antgrass.Solve", "antgrass.newSession"},
		{"antgrass.CompileC", "antgrass/internal/cgen.CompileWith"},
		{"antgrass.CompileGo", "antgrass/internal/gogen.Compile"},
	} {
		if !have[want] {
			t.Errorf("missing direct call edge %s -> %s", want.caller, want.callee)
		}
	}

	// Alias fact: the loader allocated in gogen.Compile flows into the
	// receiver of its own methods, so the two variables must share an
	// allocation site.
	assertOverlap(t, u, res, "antgrass/internal/gogen.Compile::l", "antgrass/internal/gogen.(*loader).loadTargets$recv")

	// The constraint program handed to Solve comes from somewhere: its
	// points-to set must be populated by this repository's own call sites.
	p, ok := u.VarByName("antgrass.Solve::p")
	if !ok {
		t.Fatal("variable antgrass.Solve::p not in the name table")
	}
	if n := res.PointsToLen(p); n == 0 {
		t.Error("antgrass.Solve::p points to nothing; parameter passing is broken")
	}

	mr := antgrass.ComputeModRef(u, res, false)
	if len(mr.Mod) < 50 || len(mr.Ref) < 50 {
		t.Errorf("MOD/REF implausibly small: %d mod, %d ref entries", len(mr.Mod), len(mr.Ref))
	}
}

// assertOverlap fails unless the two named variables share at least one
// abstract object.
func assertOverlap(t *testing.T, u *antgrass.Unit, res *antgrass.Result, a, b string) {
	t.Helper()
	va, ok := u.VarByName(a)
	if !ok {
		t.Fatalf("variable %s not in the name table", a)
	}
	vb, ok := u.VarByName(b)
	if !ok {
		t.Fatalf("variable %s not in the name table", b)
	}
	in := map[uint32]bool{}
	for _, o := range res.PointsTo(va) {
		in[o] = true
	}
	for _, o := range res.PointsTo(vb) {
		if in[o] {
			return
		}
	}
	t.Errorf("%s (|pts|=%d) and %s (|pts|=%d) do not alias", a, res.PointsToLen(va), b, res.PointsToLen(vb))
}
