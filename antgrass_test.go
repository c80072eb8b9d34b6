package antgrass

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

const quickSrc = `
void *malloc(unsigned long n);
int g1, g2;
int *pick(int c) { if (c) return &g1; return &g2; }
int *(*sel)(int);
int *result;
void main(void) {
	sel = pick;
	result = sel(1);
}
`

func TestEndToEndC(t *testing.T) {
	u, err := CompileC(quickSrc, CGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(context.Background(), u.Prog, Options{Algorithm: LCD, HCD: true})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := u.VarByName("result")
	g1, _ := u.VarByName("g1")
	g2, _ := u.VarByName("g2")
	got := r.PointsTo(res)
	want := []VarID{g1, g2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pts(result) = %v, want %v", got, want)
	}
	if !r.Contains(res, g1) || r.Contains(res, res) {
		t.Error("Contains mismatch")
	}
	if r.PointsToLen(res) != 2 {
		t.Errorf("PointsToLen = %d", r.PointsToLen(res))
	}
}

// TestAllConfigurationsAgree runs every public algorithm, representation,
// and pre-processing combination on a C program and a synthetic workload
// and demands identical solutions.
func TestAllConfigurationsAgree(t *testing.T) {
	u, err := CompileC(quickSrc, CGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Workload("emacs", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []*Program{u.Prog, w} {
		base, err := Solve(context.Background(), prog, Options{Algorithm: Naive})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{Naive, LCD, HT, PKH, PKW, BLQ} {
			for _, hcdOn := range []bool{false, true} {
				for _, ovsOn := range []bool{false, true} {
					for _, repr := range []Repr{Bitmap, BDD} {
						if alg == BLQ && repr == BDD {
							continue // BLQ is inherently relation-BDD
						}
						r, err := Solve(context.Background(), prog, Options{Algorithm: alg, HCD: hcdOn, OVS: ovsOn, Pts: repr, BDDPoolNodes: 1 << 14})
						if err != nil {
							t.Fatalf("%s hcd=%v ovs=%v %s: %v", alg, hcdOn, ovsOn, repr, err)
						}
						for v := VarID(0); v < VarID(prog.NumVars); v++ {
							a, b := base.PointsTo(v), r.PointsTo(v)
							if len(a) == 0 && len(b) == 0 {
								continue
							}
							if !reflect.DeepEqual(a, b) {
								t.Fatalf("%s hcd=%v ovs=%v %s: pts(%s) = %v, want %v",
									alg, hcdOn, ovsOn, repr, prog.NameOf(v), b, a)
							}
						}
					}
				}
			}
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	p := NewProgram()
	p.AddVar("x")
	if _, err := Solve(context.Background(), p, Options{Algorithm: "frobnicate"}); err == nil {
		t.Error("unknown algorithm must error")
	}
}

func TestOVSStatsExposed(t *testing.T) {
	w, _ := Workload("gimp", 0.01)
	r, err := Solve(context.Background(), w, Options{Algorithm: LCD, OVS: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.OVSStats == nil || r.OVSStats.After > r.OVSStats.Before {
		t.Errorf("OVS stats missing or nonsensical: %+v", r.OVSStats)
	}
	if r2, _ := Solve(context.Background(), w, Options{Algorithm: LCD}); r2.OVSStats != nil {
		t.Error("OVSStats must be nil when OVS is off")
	}
}

func TestHVNHUStatsExposed(t *testing.T) {
	w, _ := Workload("gimp", 0.01)
	r, err := Solve(context.Background(), w, Options{Algorithm: LCD, HVN: true, HU: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.HVNStats == nil || r.HVNStats.After > r.HVNStats.Before {
		t.Errorf("HVN stats missing or nonsensical: %+v", r.HVNStats)
	}
	if r.HUStats == nil || r.HUStats.After > r.HUStats.Before {
		t.Errorf("HU stats missing or nonsensical: %+v", r.HUStats)
	}
	if r.HUStats != nil && r.HUStats.Before != r.HVNStats.After {
		t.Errorf("HU must run on the HVN-reduced program: hvn.After=%d hu.Before=%d",
			r.HVNStats.After, r.HUStats.Before)
	}
	if r2, _ := Solve(context.Background(), w, Options{Algorithm: LCD}); r2.HVNStats != nil || r2.HUStats != nil {
		t.Error("HVNStats/HUStats must be nil when the passes are off")
	}
}

// TestOfflineTiersAgree checks the offline pre-pass lattice at the facade
// level: every tier of HVN ⊑ HU ⊑ +OVS (alone and stacked, with and
// without HCD) must leave the published solution bit-identical to a
// plain solve.
func TestOfflineTiersAgree(t *testing.T) {
	u, err := CompileC(quickSrc, CGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Workload("ghostscript", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	tiers := []Options{
		{HVN: true},
		{HU: true},
		{HVN: true, HU: true},
		{HVN: true, HU: true, OVS: true},
	}
	for _, prog := range []*Program{u.Prog, w} {
		base, err := Solve(context.Background(), prog, Options{Algorithm: Naive})
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range tiers {
			for _, hcdOn := range []bool{false, true} {
				o := tier
				o.Algorithm = LCD
				o.HCD = hcdOn
				r, err := Solve(context.Background(), prog, o)
				if err != nil {
					t.Fatalf("hvn=%v hu=%v ovs=%v hcd=%v: %v", o.HVN, o.HU, o.OVS, hcdOn, err)
				}
				for v := VarID(0); v < VarID(prog.NumVars); v++ {
					a, b := base.PointsTo(v), r.PointsTo(v)
					if len(a) == 0 && len(b) == 0 {
						continue
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("hvn=%v hu=%v ovs=%v hcd=%v: pts(%s) = %v, want %v",
							o.HVN, o.HU, o.OVS, hcdOn, prog.NameOf(v), b, a)
					}
				}
			}
		}
	}
}

func TestProgramRoundTripThroughFacade(t *testing.T) {
	w, _ := Workload("insight", 0.01)
	var buf bytes.Buffer
	if err := WriteProgram(&buf, w); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumVars != w.NumVars || len(p2.Constraints) != len(w.Constraints) {
		t.Error("round trip changed the program")
	}
}

func TestWorkloadNames(t *testing.T) {
	ws := Workloads()
	if len(ws) != 6 || ws[0].Name != "emacs" || ws[5].Name != "linux" {
		t.Errorf("Workloads = %v", ws)
	}
	if _, err := Workload("bogus", 1); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestCallGraph(t *testing.T) {
	src := `
int helper(int x) { return x; }
int other(int x) { return x; }
int (*fp)(int);
void choose(int c) { if (c) fp = helper; else fp = other; }
int run(void) { choose(1); return fp(7); }
`
	u, err := CompileC(src, CGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(context.Background(), u.Prog, Options{Algorithm: LCD, HCD: true})
	if err != nil {
		t.Fatal(err)
	}
	edges := CallGraph(u, r)
	var direct, indirect []string
	for _, e := range edges {
		s := e.Caller + "->" + e.Callee
		if e.Indirect {
			indirect = append(indirect, s)
		} else {
			direct = append(direct, s)
		}
	}
	wantDirect := "run->choose"
	found := false
	for _, d := range direct {
		if d == wantDirect {
			found = true
		}
	}
	if !found {
		t.Errorf("direct edges %v missing %q", direct, wantDirect)
	}
	if len(indirect) != 2 {
		t.Errorf("indirect edges = %v, want run->helper and run->other", indirect)
	}
	for _, want := range []string{"run->helper", "run->other"} {
		ok := false
		for _, s := range indirect {
			if s == want {
				ok = true
			}
		}
		if !ok {
			t.Errorf("missing indirect edge %q in %v", want, indirect)
		}
	}
}

func TestAliasFacade(t *testing.T) {
	src := `
int obj;
int *a, *b, *c;
int other;
void main(void) { a = &obj; b = a; c = &other; }
`
	u, err := CompileC(src, CGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(context.Background(), u.Prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	av, _ := u.VarByName("a")
	bv, _ := u.VarByName("b")
	cv, _ := u.VarByName("c")
	if !r.Alias(av, bv) {
		t.Error("a and b alias")
	}
	if r.Alias(av, cv) {
		t.Error("a and c must not alias")
	}
	if r.Rep(av) == 0 && r.Rep(bv) == 0 {
		t.Log("reps are zero-valued, fine — just exercising the accessor")
	}
}

func TestDefaultsApplied(t *testing.T) {
	w, _ := Workload("emacs", 0.005)
	r, err := Solve(context.Background(), w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().SolveDuration <= 0 {
		t.Error("defaulted solve should record duration")
	}
}

func TestCompileError(t *testing.T) {
	_, err := CompileC("int f( {", CGenOptions{})
	if err == nil {
		t.Fatal("expected parse error")
	}
	if !strings.Contains(err.Error(), ":") {
		t.Errorf("error should carry position: %v", err)
	}
}
