package antgrass

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// referenceCallGraph is CallGraph as first written: it deduplicates edges
// in a map keyed by the whole edge and sorts them by comparing names.
func referenceCallGraph(u *Unit, r *Result) []CallEdge {
	fnName := make(map[VarID]string, len(u.Funcs))
	for name, id := range u.Funcs {
		fnName[id] = name
	}
	var edges []CallEdge
	seen := map[CallEdge]bool{}
	add := func(e CallEdge) {
		if e.Caller == "" {
			e.Caller = "<toplevel>"
		}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for _, cs := range u.CallSites {
		if !cs.Indirect {
			add(CallEdge{Caller: cs.Caller, Callee: cs.Callee, Line: cs.Line})
			continue
		}
		for _, o := range r.PointsTo(cs.FuncPtr) {
			if name, isFn := fnName[o]; isFn {
				add(CallEdge{Caller: cs.Caller, Callee: name, Line: cs.Line, Indirect: true})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Callee < b.Callee
	})
	return edges
}

// checkCallGraphMatchesReference fails unless CallGraph returns the
// reference's edges in the reference's order.
func checkCallGraphMatchesReference(t *testing.T, label string, u *Unit, r *Result) {
	t.Helper()
	got, want := CallGraph(u, r), referenceCallGraph(u, r)
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
	t.Fatalf("%s: %d edges (nil %v), want %d (nil %v)", label, len(got), got == nil, len(want), want == nil)
}

// TestCallGraphMatchesReferenceOnStdlib compares the call graphs of the
// solved standard-library set.
func TestCallGraphMatchesReferenceOnStdlib(t *testing.T) {
	u, r := stdlibModRefInput(t)
	checkCallGraphMatchesReference(t, "stdlib", u, r)
}

// TestCallGraphMatchesReferenceOnCPrograms compares the call graphs of
// the C front end's test programs, solved with bitmap and BDD sets.
func TestCallGraphMatchesReferenceOnCPrograms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("internal", "cgen", "testdata", "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no C programs in internal/cgen/testdata")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		u, err := CompileC(string(src), CGenOptions{})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, pts := range []Repr{Bitmap, BDD} {
			r, err := Solve(context.Background(), u.Prog, Options{Algorithm: LCD, HCD: true, Pts: pts})
			if err != nil {
				t.Fatal(err)
			}
			checkCallGraphMatchesReference(t, filepath.Base(f)+"/"+string(pts), u, r)
		}
	}
}

// TestCallGraphMatchesReferenceOnRandomUnits compares the call graphs of
// random units, whose few names and lines make duplicate edges, and
// direct and indirect edges between the same functions on the same line,
// common.
func TestCallGraphMatchesReferenceOnRandomUnits(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 300
	}
	for seed := 0; seed < seeds; seed++ {
		u := randomModRefUnit(rand.New(rand.NewSource(int64(seed))))
		for _, pts := range []Repr{Bitmap, BDD} {
			r, err := Solve(context.Background(), u.Prog, Options{Algorithm: LCD, Pts: pts})
			if err != nil {
				t.Fatal(err)
			}
			checkCallGraphMatchesReference(t, fmt.Sprintf("seed %d/%s", seed, pts), u, r)
		}
	}
}

// BenchmarkCallGraph resolves the call graph of the solved
// standard-library set, the go-stdlib client step; the compile and solve
// run once outside the timer.
func BenchmarkCallGraph(b *testing.B) {
	u, r := stdlibModRefInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		callEdges = CallGraph(u, r)
	}
}

// callEdges keeps BenchmarkCallGraph's results live.
var callEdges []CallEdge
