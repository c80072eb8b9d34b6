package hvn_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"antgrass/internal/cgen"
	"antgrass/internal/constraint"
	"antgrass/internal/gogen"
	"antgrass/internal/hvn"
	"antgrass/internal/ovs"
	"antgrass/internal/synth"
)

// programText is p in the constraint-file format.
func programText(tb testing.TB, p *constraint.Program) string {
	tb.Helper()
	var b bytes.Buffer
	if err := constraint.Write(&b, p); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

// textDiff names the first line where two constraint files differ.
func textDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// diffHVN describes the first difference between an HVN or HU result and
// the reference's, or returns "".
func diffHVN(tb testing.TB, got, want *hvn.Result) string {
	if g, w := programText(tb, got.Reduced), programText(tb, want.Reduced); g != w {
		return "reduced program: " + textDiff(g, w)
	}
	type counts struct{ before, after, merged, nonPointer, dropped int }
	gc := counts{got.Before, got.After, got.MergedVars, got.NonPointerVars, got.DroppedConstraints}
	wc := counts{want.Before, want.After, want.MergedVars, want.NonPointerVars, want.DroppedConstraints}
	if gc != wc || got.HU != want.HU {
		return fmt.Sprintf("counts (before, after, merged, non-pointer, dropped): got %v hu=%v, want %v hu=%v", gc, got.HU, wc, want.HU)
	}
	if !slices.Equal(got.PreUnions, want.PreUnions) {
		return fmt.Sprintf("pre-unions: got %d pairs, want %d (or another order)", len(got.PreUnions), len(want.PreUnions))
	}
	return ""
}

// diffOVS is diffHVN for OVS. The reference emits its groups in map
// order, so pre-unions compare as sets.
func diffOVS(tb testing.TB, got, want *ovs.Result) string {
	if g, w := programText(tb, got.Reduced), programText(tb, want.Reduced); g != w {
		return "reduced program: " + textDiff(g, w)
	}
	if got.Before != want.Before || got.After != want.After {
		return fmt.Sprintf("counts (before, after): got %d, %d, want %d, %d", got.Before, got.After, want.Before, want.After)
	}
	cmp := func(a, b [2]uint32) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	}
	g, w := slices.Clone(got.PreUnions), slices.Clone(want.PreUnions)
	slices.SortFunc(g, cmp)
	slices.SortFunc(w, cmp)
	if !slices.Equal(g, w) {
		return fmt.Sprintf("pre-unions: got %d pairs, want %d (or other pairs)", len(g), len(w))
	}
	return ""
}

// checkMatchesReference runs HVN, HU and OVS on p, and HU and OVS once
// more chained as the solver runs them (HU on HVN's output, OVS on HU's),
// failing on any difference from the reference passes.
func checkMatchesReference(t testing.TB, label string, p *constraint.Program) {
	t.Helper()
	for _, hu := range []bool{false, true} {
		if d := diffHVN(t, hvn.Reduce(p, hu), referenceHVN(p, hu)); d != "" {
			t.Fatalf("%s, hu=%v: %s", label, hu, d)
		}
	}
	if d := diffOVS(t, ovs.Reduce(p), referenceOVS(p)); d != "" {
		t.Fatalf("%s, ovs: %s", label, d)
	}
	afterHVN := hvn.Reduce(p, false).Reduced
	hu := hvn.Reduce(afterHVN, true)
	if d := diffHVN(t, hu, referenceHVN(afterHVN, true)); d != "" {
		t.Fatalf("%s, hu after hvn: %s", label, d)
	}
	if d := diffOVS(t, ovs.Reduce(hu.Reduced), referenceOVS(hu.Reduced)); d != "" {
		t.Fatalf("%s, ovs after hvn and hu: %s", label, d)
	}
}

// TestReduceMatchesReferenceOnProfiles compares the passes on the six
// Table 2 profiles at two scales and three seeds each.
func TestReduceMatchesReferenceOnProfiles(t *testing.T) {
	for _, prof := range synth.PaperProfiles {
		for _, scale := range []float64{0.02, 0.2} {
			for seed := int64(0); seed < 3; seed++ {
				q := prof.Scale(scale)
				q.Seed += 1000 * seed
				checkMatchesReference(t, fmt.Sprintf("%s@%g/seed %d", prof.Name, scale, q.Seed), synth.Generate(q))
			}
		}
	}
}

// randomPrograms calls f on the valid programs of the first count
// synth.RandomProgram seeds.
func randomPrograms(t *testing.T, count int64, f func(seed int64, p *constraint.Program)) {
	valid := 0
	for seed := int64(0); seed < count; seed++ {
		p := synth.RandomProgram(rand.New(rand.NewSource(seed)))
		if p.Validate() != nil {
			continue
		}
		valid++
		f(seed, p)
	}
	if valid < int(count)/2 {
		t.Fatalf("only %d of %d random programs were valid", valid, count)
	}
}

// TestReduceMatchesReferenceOnRandomPrograms compares the passes on
// 20,000 random programs (2,000 under -short).
func TestReduceMatchesReferenceOnRandomPrograms(t *testing.T) {
	count := int64(20000)
	if testing.Short() {
		count = 2000
	}
	randomPrograms(t, count, func(seed int64, p *constraint.Program) {
		checkMatchesReference(t, fmt.Sprintf("random seed %d", seed), p)
	})
}

// TestReduceMatchesReferenceUnderCollisions repeats the random comparison
// and one profile with every set hashing alike, so each label-set and
// evaluated-set lookup decides by full comparison.
func TestReduceMatchesReferenceUnderCollisions(t *testing.T) {
	calls := 0
	defer hvn.CollideHashes(&calls)()
	count := int64(2000)
	if testing.Short() {
		count = 200
	}
	randomPrograms(t, count, func(seed int64, p *constraint.Program) {
		checkMatchesReference(t, fmt.Sprintf("random seed %d", seed), p)
	})
	prof, _ := synth.ProfileByName("emacs")
	checkMatchesReference(t, "emacs@0.02", synth.Generate(prof.Scale(0.02)))
	if calls == 0 {
		t.Fatal("no set was hashed: the collision hook is not reached")
	}
}

// TestReduceMatchesReferenceOnCPrograms compares the passes on the C
// front end's test programs.
func TestReduceMatchesReferenceOnCPrograms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "cgen", "testdata", "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no C programs in ../cgen/testdata")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		u, err := cgen.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		checkMatchesReference(t, filepath.Base(f), u.Prog)
	}
}

// stdlibPackages is this package's own copy of the 27-package
// standard-library set the repository's Go benchmarks analyze, so that
// editing theirs never changes these tests or BenchmarkReduce.
var stdlibPackages = []string{
	"bufio", "bytes", "container/heap", "container/list", "container/ring",
	"context", "encoding/json", "errors", "flag", "fmt", "go/ast",
	"go/scanner", "go/token", "io", "net/url", "os", "path",
	"path/filepath", "regexp", "regexp/syntax", "sort", "strconv",
	"strings", "sync", "text/template", "time", "unicode",
}

// stdlibProgram compiles the standard-library set with the Go front end.
func stdlibProgram(tb testing.TB) *constraint.Program {
	tb.Helper()
	u, err := gogen.Compile(gogen.Options{Packages: stdlibPackages})
	if err != nil {
		tb.Fatal(err)
	}
	return u.Prog
}

// TestReduceMatchesReferenceOnStdlib compares the passes on the
// standard-library set's program.
func TestReduceMatchesReferenceOnStdlib(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling the standard-library set is skipped in -short")
	}
	checkMatchesReference(t, "stdlib", stdlibProgram(t))
}

// FuzzReduceMatchesReference compares the passes with the references on
// programs decoded by synth.FromBytes, once with the real hash functions
// and once with every set hashing alike.
func FuzzReduceMatchesReference(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 2, 0, 1, 2, 1, 0, 2, 3, 0, 0, 3, 1, 2, 0}) // addr/copy/load/store mix
	f.Add([]byte{2, 9, 2, 0, 3, 1, 3, 4, 0, 2})                         // functions + offset derefs
	f.Add([]byte{0, 6, 0, 3, 0, 0, 0, 3, 1, 0, 0, 4, 0, 0, 0, 4, 1, 0}) // equal address sets
	f.Add([]byte{1, 1})                                                 // minimal universe
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+4*512 {
			t.Skip("oversized input")
		}
		p := synth.FromBytes(data)
		checkMatchesReference(t, "input", p)
		calls := 0
		restore := hvn.CollideHashes(&calls)
		defer restore()
		checkMatchesReference(t, "input, colliding hashes", p)
	})
}
