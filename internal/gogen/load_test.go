package gogen

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"antgrass/internal/cgen"
	"antgrass/internal/constraint"
)

// stdlibSet is this package's own copy of the 27-package standard-library
// set the repository's Go benchmarks analyze, so that editing theirs never
// changes these tests or BenchmarkCompile.
var stdlibSet = []string{
	"bufio", "bytes", "container/heap", "container/list", "container/ring",
	"context", "encoding/json", "errors", "flag", "fmt", "go/ast",
	"go/scanner", "go/token", "io", "net/url", "os", "path",
	"path/filepath", "regexp", "regexp/syntax", "sort", "strconv",
	"strings", "sync", "text/template", "time", "unicode",
}

// compileText compiles o and returns the program's constraint-file text.
func compileText(t testing.TB, o Options) ([]byte, *cgen.Unit) {
	t.Helper()
	u, err := Compile(o)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var b bytes.Buffer
	if err := constraint.Write(&b, u.Prog); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), u
}

// TestCompileIndependentOfSchedule pins that the loader's schedule never
// reaches the output: at 1, 2 and 4 typechecking slots the program text
// and the warnings are identical. The standard library and this module
// typecheck cleanly, so a module of five packages whose four imports
// each report a type error pins the order of the warnings.
func TestCompileIndependentOfSchedule(t *testing.T) {
	broken := map[string]string{
		"a/a.go": "package a\n\nimport (\n\t\"m/b\"\n\t\"m/c\"\n\t\"m/d\"\n\t\"m/e\"\n)\n\nvar P = []*int{b.P, c.P, d.P, e.P}\n",
	}
	for _, name := range []string{"b", "c", "d", "e"} {
		broken[name+"/"+name+".go"] = "package " + name + "\n\nvar P *int\n\nvar _ int = \"" + name + "\"\n"
	}
	type compileCase struct {
		name string
		o    Options
	}
	cases := []compileCase{
		{"warnings", Options{Dir: writeModule(t, broken), Packages: []string{"m/a"}}},
		{"stdlib", Options{Packages: stdlibSet}},
		{"self", Options{Dir: "../.."}},
	}
	if testing.Short() {
		cases = []compileCase{cases[0], {"fmt", Options{Packages: []string{"fmt"}}}}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			var wantWarns []string
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got, u := compileText(t, tc.o)
				if want == nil {
					want, wantWarns = got, u.Warnings
					if tc.name == "warnings" && len(wantWarns) != 4 {
						t.Fatalf("want one warning from each of four packages, got %q", wantWarns)
					}
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("GOMAXPROCS=%d: program differs from GOMAXPROCS=1 (%d vs %d bytes)", procs, len(got), len(want))
				}
				if !reflect.DeepEqual(u.Warnings, wantWarns) {
					t.Errorf("GOMAXPROCS=%d: warnings %q, at GOMAXPROCS=1 %q", procs, u.Warnings, wantWarns)
				}
			}
		})
	}
}

// writeModule lays out a module named m under a fresh directory: files
// maps slash-separated paths to their contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module m\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// compileWithin runs Compile with a deadline, so a loader that waits
// forever fails the test instead of hanging the binary.
func compileWithin(t *testing.T, o Options) (*cgen.Unit, error) {
	t.Helper()
	type result struct {
		u   *cgen.Unit
		err error
	}
	ch := make(chan result, 1)
	go func() {
		u, err := Compile(o)
		ch <- result{u, err}
	}()
	select {
	case r := <-ch:
		return r.u, r.err
	case <-time.After(time.Minute):
		t.Fatal("Compile did not return within a minute")
		return nil, nil
	}
}

// TestLoadBrokenDependenciesWarn pins that a dependency the loader cannot
// use — one in an import cycle, one that does not resolve, one that does
// not parse — leaves the compile finished with warnings naming it, and
// its importers generated.
func TestLoadBrokenDependenciesWarn(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		warn  string
	}{
		{"cycle", map[string]string{
			"a/a.go": "package a\n\nimport \"m/b\"\n\nvar P = b.P\n",
			"b/b.go": "package b\n\nimport \"m/a\"\n\nvar P *int\n\nvar _ = a.P\n",
		}, `import cycle through "m/a"`},
		{"unresolvable", map[string]string{
			"a/a.go": "package a\n\nimport \"m/missing\"\n\nvar P = missing.P\n",
		}, `could not import m/missing`},
		{"syntax", map[string]string{
			"a/a.go": "package a\n\nimport \"m/b\"\n\nvar P = b.P\n",
			"b/b.go": "package b\n\nvar P *int\n\nfunc f( {\n",
		}, `gogen: parsing b.go`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeModule(t, tc.files)
			u, err := compileWithin(t, Options{Dir: dir, Packages: []string{"m/a"}})
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if len(u.Warnings) == 0 || !strings.Contains(strings.Join(u.Warnings, "\n"), tc.warn) {
				t.Errorf("warnings %q, want one containing %q", u.Warnings, tc.warn)
			}
			if _, ok := u.VarByName("m/a.P"); !ok {
				t.Error("the importer's package-level variable m/a.P was not generated")
			}
		})
	}
}

// TestLoadCycleOfTargets pins that two targets importing each other are
// both generated, with the cycle reported as a warning, not a hang.
func TestLoadCycleOfTargets(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"m/b\"\n\nvar P = b.P\n",
		"b/b.go": "package b\n\nimport \"m/a\"\n\nvar P *int\n\nvar Q = a.P\n",
	})
	u, err := compileWithin(t, Options{Dir: dir})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !strings.Contains(strings.Join(u.Warnings, "\n"), "import cycle through") {
		t.Errorf("warnings %q, want an import cycle", u.Warnings)
	}
	for _, name := range []string{"m/a.P", "m/b.P", "m/b.Q"} {
		if _, ok := u.VarByName(name); !ok {
			t.Errorf("%s was not generated", name)
		}
	}
}

// TestLoadTargetSyntaxErrorFails pins that a target that does not parse
// fails the compile, even when another target imports it, for which it
// alone would only be a warning.
func TestLoadTargetSyntaxErrorFails(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"m/b\"\n\nvar P = b.P\n",
		"b/b.go": "package b\n\nvar P *int\n\nfunc f( {\n",
	})
	_, err := compileWithin(t, Options{Dir: dir, Packages: []string{"m/a", "m/b"}})
	if err == nil || !strings.Contains(err.Error(), "parsing b.go") {
		t.Fatalf("Compile error = %v, want the target's parse error", err)
	}
}

// BenchmarkCompile compiles the standard-library set and this module,
// each from a cold loader (a fresh FileSet and type universe per
// iteration, as every Compile call starts).
func BenchmarkCompile(b *testing.B) {
	for _, bc := range []struct {
		name string
		o    Options
	}{
		{"stdlib", Options{Packages: stdlibSet}},
		{"self", Options{Dir: "../.."}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(bc.o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
