package antgrass

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"antgrass/internal/cgen"
	"antgrass/internal/synth"
)

const modRefSrc = `
int a, b, c;

void writer(int *p) { *p = 1; }
void reader(int *p) { int x = *p; }
void untouched(void) { }

void driver(void) {
	writer(&a);
	reader(&b);
}

void main(void) {
	driver();
	writer(&c);
}
`

func solveModRef(t *testing.T, transitive bool) (*Unit, *ModRefInfo) {
	t.Helper()
	u, err := CompileC(modRefSrc, CGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(context.Background(), u.Prog, Options{Algorithm: LCD, HCD: true})
	if err != nil {
		t.Fatal(err)
	}
	return u, ComputeModRef(u, r, transitive)
}

func TestModRefDirect(t *testing.T) {
	u, mr := solveModRef(t, false)
	aID, _ := u.VarByName("a")
	bID, _ := u.VarByName("b")
	cID, _ := u.VarByName("c")
	// writer modifies whatever its parameter may point at: a and c
	// (context-insensitively merged), never b.
	if !mr.Modifies("writer", aID) || !mr.Modifies("writer", cID) {
		t.Errorf("writer must modify a and c: %v", mr.Mod["writer"])
	}
	if mr.Modifies("writer", bID) {
		t.Error("writer must not modify b")
	}
	if mr.References("writer", aID) {
		t.Error("writer reads nothing through pointers")
	}
	// reader references only b.
	if !mr.References("reader", bID) || mr.References("reader", aID) {
		t.Errorf("reader refs = %v", mr.Ref["reader"])
	}
	// Without transitivity, driver has no direct dereferences.
	if len(mr.Mod["driver"]) != 0 || len(mr.Ref["driver"]) != 0 {
		t.Errorf("driver should be empty non-transitively: mod=%v ref=%v",
			mr.Mod["driver"], mr.Ref["driver"])
	}
	if len(mr.Mod["untouched"])+len(mr.Ref["untouched"]) != 0 {
		t.Error("untouched must stay empty")
	}
}

func TestModRefTransitive(t *testing.T) {
	u, mr := solveModRef(t, true)
	aID, _ := u.VarByName("a")
	bID, _ := u.VarByName("b")
	cID, _ := u.VarByName("c")
	// driver inherits writer's and reader's effects.
	if !mr.Modifies("driver", aID) {
		t.Errorf("driver must (transitively) modify a: %v", mr.Mod["driver"])
	}
	if !mr.References("driver", bID) {
		t.Errorf("driver must (transitively) reference b: %v", mr.Ref["driver"])
	}
	// main inherits everything.
	if !mr.Modifies("main", aID) || !mr.Modifies("main", cID) || !mr.References("main", bID) {
		t.Errorf("main summary incomplete: mod=%v ref=%v", mr.Mod["main"], mr.Ref["main"])
	}
	if len(mr.Mod["untouched"])+len(mr.Ref["untouched"]) != 0 {
		t.Error("untouched must stay empty even transitively")
	}
}

func TestModRefThroughFunctionPointer(t *testing.T) {
	src := `
int g1, g2;
void h1(int *p) { *p = 1; }
void h2(int *p) { *p = 2; }
void (*hook)(int *);
void fire(void) { hook(&g1); }
void main(void) { hook = h1; hook = h2; fire(); }
`
	u, err := CompileC(src, CGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(context.Background(), u.Prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mr := ComputeModRef(u, r, true)
	g1, _ := u.VarByName("g1")
	// fire calls through the hook: both handlers' effects surface.
	if !mr.Modifies("fire", g1) {
		t.Errorf("fire must modify g1 via the resolved hook: %v", mr.Mod["fire"])
	}
	if !mr.Modifies("main", g1) {
		t.Error("main inherits fire's effects")
	}
}

func TestModRefContainsHelper(t *testing.T) {
	m := &ModRefInfo{Mod: map[string][]VarID{"f": {2, 5, 9}}}
	for _, v := range []VarID{2, 5, 9} {
		if !m.Modifies("f", v) {
			t.Errorf("Modifies(f, %d) = false", v)
		}
	}
	for _, v := range []VarID{0, 3, 10} {
		if m.Modifies("f", v) {
			t.Errorf("Modifies(f, %d) = true", v)
		}
	}
	if m.Modifies("missing", 2) {
		t.Error("unknown function modifies nothing")
	}
}

// referenceModRef is ComputeModRef as it was before its sets became
// bitmaps: string-keyed maps of VarID sets, one PointsTo slice per
// dereference site, and the same call-edge fixpoint over those maps. The
// tests hold ComputeModRef's answers equal to it.
func referenceModRef(u *Unit, r *Result, transitive bool) *ModRefInfo {
	mod := map[string]map[VarID]bool{}
	ref := map[string]map[VarID]bool{}
	add := func(m map[string]map[VarID]bool, fn string, locs []VarID) {
		if m[fn] == nil {
			m[fn] = map[VarID]bool{}
		}
		for _, l := range locs {
			m[fn][l] = true
		}
	}
	for _, d := range u.DerefSites {
		fn := d.Fn
		if fn == "" {
			fn = "<toplevel>"
		}
		if d.Write {
			add(mod, fn, r.PointsTo(d.Ptr))
		} else {
			add(ref, fn, r.PointsTo(d.Ptr))
		}
	}
	if transitive {
		edges := CallGraph(u, r)
		for changed := true; changed; {
			changed = false
			for _, e := range edges {
				for l := range mod[e.Callee] {
					if mod[e.Caller] == nil {
						mod[e.Caller] = map[VarID]bool{}
					}
					if !mod[e.Caller][l] {
						mod[e.Caller][l] = true
						changed = true
					}
				}
				for l := range ref[e.Callee] {
					if ref[e.Caller] == nil {
						ref[e.Caller] = map[VarID]bool{}
					}
					if !ref[e.Caller][l] {
						ref[e.Caller][l] = true
						changed = true
					}
				}
			}
		}
	}
	out := &ModRefInfo{Mod: map[string][]VarID{}, Ref: map[string][]VarID{}}
	flatten := func(src map[string]map[VarID]bool, dst map[string][]VarID) {
		for fn, set := range src {
			locs := make([]VarID, 0, len(set))
			for l := range set {
				locs = append(locs, l)
			}
			sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
			dst[fn] = locs
		}
	}
	flatten(mod, out.Mod)
	flatten(ref, out.Ref)
	return out
}

// modRefStdlib is this package's own copy of the 27-package
// standard-library set the repository's Go benchmarks analyze, so that
// editing theirs never changes these tests or BenchmarkModRef.
var modRefStdlib = []string{
	"bufio", "bytes", "container/heap", "container/list", "container/ring",
	"context", "encoding/json", "errors", "flag", "fmt", "go/ast",
	"go/scanner", "go/token", "io", "net/url", "os", "path",
	"path/filepath", "regexp", "regexp/syntax", "sort", "strconv",
	"strings", "sync", "text/template", "time", "unicode",
}

// stdlibModRefInput compiles the standard-library set and solves it the
// way antgo does by default.
func stdlibModRefInput(tb testing.TB) (*Unit, *Result) {
	tb.Helper()
	u, err := CompileGo(GoOptions{Packages: modRefStdlib})
	if err != nil {
		tb.Fatal(err)
	}
	r, err := Solve(context.Background(), u.Prog, Options{Algorithm: LCD, HCD: true, HVN: true, HU: true, OVS: true})
	if err != nil {
		tb.Fatal(err)
	}
	return u, r
}

// checkModRefMatchesReference compares ComputeModRef with referenceModRef
// in the given modes, failing on any difference in keys, locations or
// the nil-versus-empty shape of an entry.
func checkModRefMatchesReference(t *testing.T, label string, u *Unit, r *Result, modes ...bool) {
	t.Helper()
	for _, transitive := range modes {
		got, want := ComputeModRef(u, r, transitive), referenceModRef(u, r, transitive)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s, transitive=%v: ComputeModRef differs from the reference: %s", label, transitive, modRefDiff(got, want))
		}
	}
}

// modRefDiff names the first function whose entry differs.
func modRefDiff(got, want *ModRefInfo) string {
	for _, side := range []struct {
		name      string
		got, want map[string][]VarID
	}{{"Mod", got.Mod, want.Mod}, {"Ref", got.Ref, want.Ref}} {
		var fns []string
		for fn := range side.want {
			fns = append(fns, fn)
		}
		for fn := range side.got {
			if _, ok := side.want[fn]; !ok {
				fns = append(fns, fn)
			}
		}
		sort.Strings(fns)
		for _, fn := range fns {
			g, gok := side.got[fn]
			w, wok := side.want[fn]
			if gok != wok || !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("%s[%q]: got %v (present %v), want %v (present %v)", side.name, fn, g, gok, w, wok)
			}
		}
	}
	return "no entry differs"
}

// TestModRefMatchesReferenceOnStdlib compares both modes on the
// standard-library set. The reference's transitive mode takes tens of
// seconds there, so -short keeps the direct mode only.
func TestModRefMatchesReferenceOnStdlib(t *testing.T) {
	u, r := stdlibModRefInput(t)
	modes := []bool{false, true}
	if testing.Short() {
		modes = modes[:1]
	}
	checkModRefMatchesReference(t, "stdlib", u, r, modes...)
}

// TestModRefMatchesReferenceOnCPrograms compares both modes on the C
// front end's test programs, solved with bitmap and with BDD sets (whose
// snapshot reads go through the snapshot's lock).
func TestModRefMatchesReferenceOnCPrograms(t *testing.T) {
	dir := filepath.Join("internal", "cgen", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		u, err := CompileC(string(src), CGenOptions{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(u.DerefSites) == 0 {
			t.Fatalf("%s: no dereference sites", e.Name())
		}
		for _, pts := range []Repr{Bitmap, BDD} {
			r, err := Solve(context.Background(), u.Prog, Options{Algorithm: LCD, HCD: true, Pts: pts})
			if err != nil {
				t.Fatal(err)
			}
			checkModRefMatchesReference(t, e.Name()+"/"+string(pts), u, r, false, true)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no C programs in " + dir)
	}
}

// randomModRefUnit wraps a random program in a unit whose dereference
// and call sites are drawn over a few function names, with some sites in
// the toplevel ("") and indirect calls through random variables.
func randomModRefUnit(rng *rand.Rand) *Unit {
	p := synth.RandomProgram(rng)
	for p.Validate() != nil {
		p = synth.RandomProgram(rng)
	}
	u := &Unit{Prog: p, Funcs: map[string]uint32{}}
	names := []string{"", "main"}
	for v := 0; v < p.NumVars; v++ {
		if name := p.NameOf(uint32(v)); strings.HasPrefix(name, "f") && !strings.Contains(name, "$") {
			u.Funcs[name] = uint32(v)
			names = append(names, name)
		}
	}
	pick := func() string { return names[rng.Intn(len(names))] }
	for i := rng.Intn(30); i > 0; i-- {
		u.DerefSites = append(u.DerefSites, cgen.DerefSite{
			Fn: pick(), Ptr: uint32(rng.Intn(p.NumVars + 1)), Write: rng.Intn(2) == 0,
		})
	}
	for i := rng.Intn(10); i > 0; i-- {
		cs := cgen.CallSite{Caller: pick(), Line: rng.Intn(5)}
		if rng.Intn(2) == 0 {
			cs.Callee = pick()
		} else {
			cs.Indirect, cs.FuncPtr = true, uint32(rng.Intn(p.NumVars))
		}
		u.CallSites = append(u.CallSites, cs)
	}
	return u
}

// TestModRefMatchesReferenceOnRandomUnits compares both modes on random
// units, solved with bitmap and BDD sets; a dereferenced variable is
// sometimes one past the universe, which both must ignore.
func TestModRefMatchesReferenceOnRandomUnits(t *testing.T) {
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
			checkModRefMatchesReference(t, fmt.Sprintf("seed %d/%s", seed, pts), u, r, false, true)
		}
	}
}

// TestModRefMatchesReferenceConcurrently runs ComputeModRef from several
// goroutines at once over one Result, bitmap and BDD, alongside
// PointsTo queries: the snapshot's sets are read lock-free or under its
// lock, and every caller gets the reference's answer.
func TestModRefMatchesReferenceConcurrently(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("internal", "cgen", "testdata", "interp.c"))
	if err != nil {
		t.Fatal(err)
	}
	u, err := CompileC(string(src), CGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pts := range []Repr{Bitmap, BDD} {
		r, err := Solve(context.Background(), u.Prog, Options{Algorithm: LCD, HCD: true, Pts: pts})
		if err != nil {
			t.Fatal(err)
		}
		want := [2]*ModRefInfo{referenceModRef(u, r, false), referenceModRef(u, r, true)}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					transitive := (g+i)%2 == 1
					if got := ComputeModRef(u, r, transitive); !reflect.DeepEqual(got, want[(g+i)%2]) {
						t.Errorf("%s, transitive=%v: %s", pts, transitive, modRefDiff(got, want[(g+i)%2]))
						return
					}
					for v := 0; v < u.Prog.NumVars; v += 7 {
						r.PointsTo(VarID(v))
					}
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkModRef runs MOD/REF over the solved standard-library set, the
// go-stdlib client step; the compile and solve run once outside the timer.
func BenchmarkModRef(b *testing.B) {
	u, r := stdlibModRefInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeModRef(u, r, false)
	}
}
