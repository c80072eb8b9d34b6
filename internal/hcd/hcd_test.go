package hcd

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/scc"
	"antgrass/internal/synth"
)

// TestPaperFigure3 reproduces the running example of §4.2:
//
//	a = &c; d = c; b = *a; *a = b
//
// The offline constraint graph puts *a and b in a cycle, so the analysis
// must emit the tuple (a, b) and no pre-unions.
func TestPaperFigure3(t *testing.T) {
	p := constraint.NewProgram()
	a := p.AddVar("a")
	b := p.AddVar("b")
	c := p.AddVar("c")
	d := p.AddVar("d")
	p.AddAddrOf(a, c)   // a = &c
	p.AddCopy(d, c)     // d = c
	p.AddLoad(b, a, 0)  // b = *a
	p.AddStore(a, b, 0) // *a = b

	r := Analyze(p)
	if len(r.PreUnions) != 0 {
		t.Errorf("PreUnions = %v, want none", r.PreUnions)
	}
	if len(r.Pairs) != 1 {
		t.Fatalf("Pairs = %v, want exactly one", r.Pairs)
	}
	if r.Pairs[0] != (Pair{Deref: a, Target: b}) {
		t.Errorf("Pairs = %v, want (%d, %d)", r.Pairs, a, b)
	}
	if r.SCCs != 1 {
		t.Errorf("SCCs = %d, want 1", r.SCCs)
	}
	_ = d
}

func TestStructuralCycle(t *testing.T) {
	p := constraint.NewProgram()
	x := p.AddVar("x")
	y := p.AddVar("y")
	z := p.AddVar("z")
	p.AddCopy(x, y)
	p.AddCopy(y, x)
	p.AddCopy(z, x) // dangling, not in the cycle

	r := Analyze(p)
	if len(r.Pairs) != 0 {
		t.Errorf("Pairs = %v, want none", r.Pairs)
	}
	if len(r.PreUnions) != 1 {
		t.Fatalf("PreUnions = %v, want one pair", r.PreUnions)
	}
	pu := r.PreUnions[0]
	if !((pu[0] == x && pu[1] == y) || (pu[0] == y && pu[1] == x)) {
		t.Errorf("PreUnions = %v, want {x,y}", r.PreUnions)
	}
}

func TestNoCycles(t *testing.T) {
	p := constraint.NewProgram()
	a := p.AddVar("a")
	b := p.AddVar("b")
	p.AddCopy(b, a)
	p.AddLoad(a, b, 0)
	r := Analyze(p)
	if len(r.Pairs) != 0 || len(r.PreUnions) != 0 || r.SCCs != 0 {
		t.Errorf("acyclic graph produced %+v", r)
	}
}

// TestOffsetConstraintsIgnored: offset dereferences contribute no offline
// edges, so a would-be cycle through an offset load is not reported.
func TestOffsetConstraintsIgnored(t *testing.T) {
	p := constraint.NewProgram()
	f := p.AddFunc("f", 1)
	x := p.AddVar("x")
	p.AddLoad(x, f, 1)  // x ⊇ *(f+1): ignored offline
	p.AddStore(f, x, 0) // *f ⊇ x: ref(f) participates
	r := Analyze(p)
	if len(r.Pairs) != 0 {
		t.Errorf("offset load must not create offline cycles: %v", r.Pairs)
	}
}

// TestMixedSCCSharedTarget: several ref nodes in one SCC map to the same
// chosen non-ref node.
func TestMixedSCCSharedTarget(t *testing.T) {
	p := constraint.NewProgram()
	a := p.AddVar("a")
	b := p.AddVar("b")
	x := p.AddVar("x")
	// x ⊇ *a, *b ⊇ x, and tie ref(a), x, ref(b) into one cycle:
	// ref(a) → x → ref(b), and *?: close the loop with b ⊇ ... we use
	// loads/stores to chain: *a ⊇ x gives x → ref(a).
	p.AddLoad(x, a, 0)  // ref(a) → x
	p.AddStore(b, x, 0) // x → ref(b)
	p.AddLoad(x, b, 0)  // ref(b) → x  (closes ref(b) ↔ x)
	p.AddStore(a, x, 0) // x → ref(a)  (closes ref(a) ↔ x)
	r := Analyze(p)
	if len(r.Pairs) != 2 {
		t.Fatalf("Pairs = %v, want entries for a and b", r.Pairs)
	}
	want := []Pair{{Deref: a, Target: x}, {Deref: b, Target: x}}
	if r.Pairs[0] != want[0] || r.Pairs[1] != want[1] {
		t.Errorf("Pairs = %v, want %v (sorted by Deref, both targeting x)", r.Pairs, want)
	}
}

// TestMixedSCCRefMediatedCycleDropped: when the only cycle connecting two
// ref nodes threads through both of them with no var-var return path, no
// pair is licensed — the online cycle exists only if the other ref's
// points-to set turns out non-empty, which the offline pass cannot assume.
// This is the shape behind the seed -4666488491679278325 over-collapse.
func TestMixedSCCRefMediatedCycleDropped(t *testing.T) {
	p := constraint.NewProgram()
	a := p.AddVar("a")
	c := p.AddVar("c")
	v0 := p.AddVar("v0")
	v1 := p.AddVar("v1")
	x := p.AddVar("x")
	y := p.AddVar("y")
	// Offline cycle ref(a) → v0 → ref(c) → v1 → ref(a) with no var-var
	// chord: neither ref has a cycle avoiding the other.
	p.AddLoad(v0, a, 0)  // ref(a) → v0
	p.AddStore(c, v0, 0) // v0 → ref(c)
	p.AddLoad(v1, c, 0)  // ref(c) → v1
	p.AddStore(a, v1, 0) // v1 → ref(a)
	p.AddAddrOf(a, x)    // pts(a) = {x}; pts(c) stays empty
	p.AddAddrOf(x, y)
	r := Analyze(p)
	if r.SCCs != 1 {
		t.Fatalf("SCCs = %d, want the one mixed SCC", r.SCCs)
	}
	if len(r.Pairs) != 0 {
		t.Errorf("Pairs = %v, want none: every cycle is mediated by the other ref", r.Pairs)
	}
	if len(r.PreUnions) != 0 {
		t.Errorf("PreUnions = %v, want none", r.PreUnions)
	}
}

// TestMixedSCCPartialLicense: in one mixed SCC, a ref with a var-only
// return path gets a pair while a ref without one does not — and the
// licensed target must lie on the ref's own var-cycle, never on a
// ref-mediated branch of the SCC.
func TestMixedSCCPartialLicense(t *testing.T) {
	p := constraint.NewProgram()
	a := p.AddVar("a")
	b := p.AddVar("b")
	v1 := p.AddVar("v1")
	v2 := p.AddVar("v2")
	v3 := p.AddVar("v3")
	// ref(a) has a var-only cycle: ref(a) → v1 → v2 → ref(a).
	p.AddLoad(v1, a, 0)  // ref(a) → v1
	p.AddCopy(v2, v1)    // v1 → v2
	p.AddStore(a, v2, 0) // v2 → ref(a)
	// ref(b) joins the same SCC, but its only return path runs through
	// ref(a): v1 → ref(b) → v3 → ref(a) → v1.
	p.AddStore(b, v1, 0) // v1 → ref(b)
	p.AddLoad(v3, b, 0)  // ref(b) → v3
	p.AddStore(a, v3, 0) // v3 → ref(a)
	r := Analyze(p)
	if r.SCCs != 1 {
		t.Fatalf("SCCs = %d, want one mixed SCC containing both refs", r.SCCs)
	}
	if len(r.Pairs) != 1 {
		t.Fatalf("Pairs = %v, want exactly the pair for a", r.Pairs)
	}
	if r.Pairs[0].Deref != a {
		t.Errorf("Pairs = %v, want Deref a=%d (ref(b) has no var-only cycle)", r.Pairs, a)
	}
	if r.Pairs[0].Target != v1 {
		t.Errorf("Target = %d, want the smallest licensed member %d", r.Pairs[0].Target, v1)
	}
}

// TestHCDRegressionSeed4666488491679278325 pins the offline pairs computed
// for the minimized reproducer of the over-collapse found by the oracle on
// seed -4666488491679278325 (committed under
// internal/oracle/testdata/corpus/hcd_overcollapse_min.constraints).
//
// The offline SCC is {v0, v1, v3, ref(1), ref(2)}. ref(2) has the var-only
// return path v3 → ref(2) → v0 → v3, so the pair (2, 0) is licensed. ref(1)
// has no var-only cycle — its every return path threads through ref(2) — so
// the buggy table's pair targeting a member of pts-carrying v1's orbit must
// NOT be emitted: with pts(2) empty at the crucial moment, the online cycle
// it assumed never materializes, and collapsing through it leaked {1,3,5}
// into pts(v0) on the original 17-constraint program.
func TestHCDRegressionSeed4666488491679278325(t *testing.T) {
	p := constraint.NewProgram()
	for i := 1; i <= 4; i++ {
		p.AddVar("v" + string(rune('0'+i)))
	}
	p.AddCopy(2, 3)
	p.AddLoad(1, 1, 0)
	p.AddCopy(3, 0)
	p.AddAddrOf(0, 0)
	p.AddStore(2, 3, 0)
	p.AddLoad(0, 2, 0)
	p.AddCopy(3, 1)
	p.AddStore(1, 0, 0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	r := Analyze(p)
	if len(r.Pairs) != 1 || r.Pairs[0] != (Pair{Deref: 2, Target: 0}) {
		t.Errorf("Pairs = %v, want exactly (2, 0): ref(1) has no var-only cycle", r.Pairs)
	}
	for _, pr := range r.Pairs {
		if pr.Deref == 1 {
			t.Errorf("pair %v for ref(1) must not be licensed", pr)
		}
	}
}

// TestPairsSortedDeterministic: Pairs comes back sorted by Deref so every
// consumer applies collapses in one reproducible order.
func TestPairsSortedDeterministic(t *testing.T) {
	p := constraint.NewProgram()
	// Two disjoint Figure-3-style mixed SCCs, declared in reverse id
	// order so an insertion-ordered implementation would emit them
	// backwards.
	a2 := p.AddVar("a2")
	b2 := p.AddVar("b2")
	a1 := p.AddVar("a1")
	b1 := p.AddVar("b1")
	p.AddLoad(b2, a2, 0)
	p.AddStore(a2, b2, 0)
	p.AddLoad(b1, a1, 0)
	p.AddStore(a1, b1, 0)
	for i := 0; i < 5; i++ {
		r := Analyze(p)
		if len(r.Pairs) != 2 {
			t.Fatalf("Pairs = %v, want two", r.Pairs)
		}
		if r.Pairs[0].Deref != a2 || r.Pairs[1].Deref != a1 {
			t.Fatalf("Pairs = %v, want sorted by Deref (%d before %d)", r.Pairs, a2, a1)
		}
	}
}

func TestDurationRecorded(t *testing.T) {
	p := constraint.NewProgram()
	p.AddVar("a")
	r := Analyze(p)
	if r.Duration < 0 {
		t.Error("Duration must be non-negative")
	}
}

// referenceAnalyze is the offline analysis as first written: the same
// offline graph and SCC classification as Analyze, but each ref of a mixed
// SCC licenses its pair with its own two reachability walks over the SCC's
// var members (O(refs·(V+E)) per SCC). Analyze must agree with it exactly.
func referenceAnalyze(p *constraint.Program) *Result {
	n := uint32(p.NumVars)
	adj := make([][]uint32, 2*n)
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.Copy:
			adj[c.Src] = append(adj[c.Src], c.Dst)
		case constraint.Load:
			if c.Offset == 0 {
				adj[n+c.Src] = append(adj[n+c.Src], c.Dst)
			}
		case constraint.Store:
			if c.Offset == 0 {
				adj[c.Src] = append(adj[c.Src], n+c.Dst)
			}
		}
	}
	res := &Result{}
	sccRes := scc.Tarjan(int(2*n), nil, func(x uint32) []uint32 { return adj[x] })
	for _, comp := range sccRes.Comps {
		if len(comp) < 2 {
			continue
		}
		res.SCCs++
		var vars, refs []uint32
		for _, m := range comp {
			if m < n {
				vars = append(vars, m)
			} else {
				refs = append(refs, m-n)
			}
		}
		if len(refs) == 0 {
			for i := 1; i < len(vars); i++ {
				res.PreUnions = append(res.PreUnions, [2]uint32{vars[0], vars[i]})
			}
			continue
		}
		if len(vars) == 0 {
			continue
		}
		res.Pairs = append(res.Pairs, referencePairs(n, adj, vars, refs)...)
	}
	sort.Slice(res.Pairs, func(i, j int) bool { return res.Pairs[i].Deref < res.Pairs[j].Deref })
	return res
}

// referencePairs licenses one mixed SCC's tuples ref by ref: the vars
// reachable from ref(a)'s load targets and the vars reaching its store
// sources, both through the SCC's var members only, and the smallest var
// in both.
func referencePairs(n uint32, adj [][]uint32, vars, refs []uint32) []Pair {
	idx := make(map[uint32]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	fwd := make([][]int, len(vars))
	rev := make([][]int, len(vars))
	refOut := make(map[uint32][]int, len(refs))
	refIn := make(map[uint32][]int, len(refs))
	isRef := make(map[uint32]bool, len(refs))
	for _, a := range refs {
		isRef[a] = true
	}
	for i, v := range vars {
		for _, w := range adj[v] {
			if w < n {
				if j, ok := idx[w]; ok {
					fwd[i] = append(fwd[i], j)
					rev[j] = append(rev[j], i)
				}
			} else if isRef[w-n] {
				refIn[w-n] = append(refIn[w-n], i)
			}
		}
	}
	for _, a := range refs {
		for _, w := range adj[n+a] {
			if j, ok := idx[w]; ok {
				refOut[a] = append(refOut[a], j)
			}
		}
	}
	reach := func(starts []int, edges [][]int) []bool {
		seen := make([]bool, len(vars))
		stack := append([]int(nil), starts...)
		for _, s := range starts {
			seen[s] = true
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range edges[x] {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		return seen
	}
	var out []Pair
	for _, a := range refs {
		from := reach(refOut[a], fwd)
		to := reach(refIn[a], rev)
		best, found := uint32(0), false
		for i, v := range vars {
			if from[i] && to[i] && (!found || v < best) {
				best, found = v, true
			}
		}
		if found {
			out = append(out, Pair{Deref: a, Target: best})
		}
	}
	return out
}

// sameAnalysis reports how got differs from the reference result, or ""
// when Pairs, PreUnions and SCCs all match.
func sameAnalysis(got, want *Result) string {
	switch {
	case got.SCCs != want.SCCs:
		return fmt.Sprintf("SCCs = %d, reference %d", got.SCCs, want.SCCs)
	case !slices.Equal(got.Pairs, want.Pairs):
		return fmt.Sprintf("Pairs = %v, reference %v", got.Pairs, want.Pairs)
	case !slices.Equal(got.PreUnions, want.PreUnions):
		return fmt.Sprintf("PreUnions = %v, reference %v", got.PreUnions, want.PreUnions)
	}
	return ""
}

// TestAnalyzeMatchesReferenceOnProfiles compares Analyze with the per-ref
// reference on the six Table 2 profiles at four scales and six seeds each.
// Their giant mixed SCCs carry dozens to hundreds of refs, so every
// 64-ref chunk of the bitmask passes is exercised.
func TestAnalyzeMatchesReferenceOnProfiles(t *testing.T) {
	scales := []float64{0.02, 0.1, 0.3, 0.5}
	if testing.Short() {
		scales = scales[:2]
	}
	for _, prof := range synth.PaperProfiles {
		for _, scale := range scales {
			for seed := int64(0); seed < 6; seed++ {
				q := prof.Scale(scale)
				q.Seed = prof.Seed + 1000*seed
				p := synth.Generate(q)
				if d := sameAnalysis(Analyze(p), referenceAnalyze(p)); d != "" {
					t.Errorf("%s@%g seed %d: %s", prof.Name, scale, q.Seed, d)
				}
			}
		}
	}
}

// TestAnalyzeMatchesReferenceOnRandomPrograms compares Analyze with the
// per-ref reference on the property-testing generator's small programs.
func TestAnalyzeMatchesReferenceOnRandomPrograms(t *testing.T) {
	seeds := int64(20000)
	if testing.Short() {
		seeds = 2000
	}
	for seed := int64(0); seed < seeds; seed++ {
		p := synth.RandomProgram(rand.New(rand.NewSource(seed)))
		if d := sameAnalysis(Analyze(p), referenceAnalyze(p)); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// TestAnalyzeOneSCCWith130Refs builds a single mixed SCC whose 130 refs
// span three 64-ref chunks. A ring ties them together: ref(r_j) → e_j →
// ref(r_{j+1}), where the exit e_j is a var. Most refs also have a private
// var cycle ref(r_j) → x_j → y_j → ref(r_j), with e_j = y_j, and license the
// smaller of x_j and y_j; every seventh of those routes x_j → s → y_j
// through one shared var s, the smallest id, and licenses s. Every fifth
// ref has only the ring (ref(r_j) → p_j = e_j), so each of its cycles
// passes through another ref and it licenses nothing. Each ref also loads
// into a decoy d_j that stores into every other ref: d_j is reachable from
// ref(r_j) and reaches every other ref, but not ref(r_j) itself, so
// mixing one ref's bit into another's would license d_j.
func TestAnalyzeOneSCCWith130Refs(t *testing.T) {
	const nrefs = 130
	p := constraint.NewProgram()
	s := p.AddVar("s")
	r := make([]uint32, nrefs)
	for j := range r {
		r[j] = p.AddVar(fmt.Sprintf("r%d", j))
	}
	exit := make([]uint32, nrefs)
	want := map[uint32]uint32{}
	decoy := make([]uint32, nrefs)
	for j := range r {
		decoy[j] = p.AddVar(fmt.Sprintf("d%d", j))
		p.AddLoad(decoy[j], r[j], 0) // ref(r_j) → d_j
		if j%5 == 3 {
			pj := p.AddVar(fmt.Sprintf("p%d", j))
			p.AddLoad(pj, r[j], 0) // ref(r_j) → p_j
			exit[j] = pj
			continue
		}
		x := p.AddVar(fmt.Sprintf("x%d", j))
		y := p.AddVar(fmt.Sprintf("y%d", j))
		p.AddLoad(x, r[j], 0)  // ref(r_j) → x_j
		p.AddStore(r[j], y, 0) // y_j → ref(r_j)
		if j%7 == 0 {
			p.AddCopy(s, x) // x_j → s
			p.AddCopy(y, s) // s → y_j
			want[r[j]] = s
		} else {
			p.AddCopy(y, x) // x_j → y_j
			want[r[j]] = min(x, y)
		}
		exit[j] = y
	}
	for j := range r {
		p.AddStore(r[(j+1)%nrefs], exit[j], 0) // e_j → ref(r_{j+1})
		for i := range r {
			if i != j {
				p.AddStore(r[i], decoy[j], 0) // d_j → ref(r_i)
			}
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	got := Analyze(p)
	if d := sameAnalysis(got, referenceAnalyze(p)); d != "" {
		t.Fatal(d)
	}
	if got.SCCs != 1 {
		t.Fatalf("SCCs = %d, want one mixed SCC holding all %d refs", got.SCCs, nrefs)
	}
	if len(got.Pairs) != len(want) {
		t.Errorf("%d pairs, want %d", len(got.Pairs), len(want))
	}
	for _, pr := range got.Pairs {
		if w, ok := want[pr.Deref]; !ok || pr.Target != w {
			t.Errorf("pair %v: want target %d (licensed %v)", pr, w, ok)
		}
	}
}

// analyzeSink keeps BenchmarkAnalyze's results live.
var analyzeSink *Result

// BenchmarkAnalyze runs the offline analysis over the six Table 2 profiles
// at scale 0.2, generated once outside the timer.
func BenchmarkAnalyze(b *testing.B) {
	progs := make([]*constraint.Program, len(synth.PaperProfiles))
	for i, prof := range synth.PaperProfiles {
		progs[i] = synth.Generate(prof.Scale(0.2))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			analyzeSink = Analyze(p)
		}
	}
}
