package antgrass

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one of the cmd binaries into a shared temp dir.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", filepath.Base(bin), args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestCLIPipeline drives the full toolchain: antcgen compiles C to a
// constraint file, antsolve solves it, antsynth generates a workload that
// antsolve also solves, and antcall prints a call graph.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	antcgen := buildTool(t, dir, "antcgen")
	antsolve := buildTool(t, dir, "antsolve")
	antsynth := buildTool(t, dir, "antsynth")
	antcall := buildTool(t, dir, "antcall")

	// 1. C → constraints.
	csrc := filepath.Join(dir, "prog.c")
	if err := os.WriteFile(csrc, []byte(`
int g1, g2;
int *pick(int c) { if (c) return &g1; return &g2; }
int *(*sel)(int);
int *result;
void main(void) { sel = pick; result = sel(1); }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfile := filepath.Join(dir, "prog.constraints")
	_, cgenErr := run(t, antcgen, "-o", cfile, csrc)
	if !strings.Contains(cgenErr, "constraints") {
		t.Errorf("antcgen summary missing: %q", cgenErr)
	}

	// 2. Solve it and query one variable by name.
	out, _ := run(t, antsolve, "-alg", "lcd", "-hcd", "-stats", "-var", "result", cfile)
	if !strings.Contains(out, "result -> {") {
		t.Errorf("antsolve output missing variable dump:\n%s", out)
	}
	if !strings.Contains(out, "g1") || !strings.Contains(out, "g2") {
		t.Errorf("pts(result) should name g1 and g2:\n%s", out)
	}
	if !strings.Contains(out, "nodes collapsed") {
		t.Errorf("stats block missing:\n%s", out)
	}

	// 3. Synthetic workload → solve with OVS.
	wfile := filepath.Join(dir, "w.constraints")
	run(t, antsynth, "-bench", "emacs", "-scale", "0.02", "-o", wfile)
	out, _ = run(t, antsolve, "-alg", "pkh", "-ovs", wfile)
	if !strings.Contains(out, "ovs:") {
		t.Errorf("antsolve -ovs output missing reduction line:\n%s", out)
	}
	if !strings.Contains(out, "solved") {
		t.Errorf("antsolve summary missing:\n%s", out)
	}

	// 4. Call graph straight from C.
	out, _ = run(t, antcall, "-modref", "-transitive", csrc)
	if !strings.Contains(out, "main") || !strings.Contains(out, "pick") {
		t.Errorf("antcall output incomplete:\n%s", out)
	}
	if !strings.Contains(out, "MOD/REF") {
		t.Errorf("antcall -modref summary missing:\n%s", out)
	}

	// 5. Round trip: solving the same file with two algorithms agrees on
	// the summary's set statistics.
	out1, _ := run(t, antsolve, "-alg", "lcd", wfile)
	out2, _ := run(t, antsolve, "-alg", "ht", wfile)
	stat1 := extractLine(out1, "non-empty")
	stat2 := extractLine(out2, "non-empty")
	if stat1 == "" || stat1 != stat2 {
		t.Errorf("solution statistics differ between solvers:\n%q\n%q", stat1, stat2)
	}

	// 6. A -o file that cannot be created or written fails the run with
	// the error, instead of reporting success.
	outs := []string{filepath.Join(dir, "missing", "out.constraints")}
	if _, err := os.Stat("/dev/full"); err == nil {
		outs = append(outs, "/dev/full") // every write fails with ENOSPC
	}
	for _, out := range outs {
		for _, args := range [][]string{
			{antsynth, "-bench", "emacs", "-scale", "0.02", "-o", out},
			{antcgen, "-o", out, csrc},
		} {
			if msg := runFail(t, args[0], args[1:]...); !strings.Contains(msg, out) {
				t.Errorf("%s -o %s: stderr %q does not report the error", filepath.Base(args[0]), out, msg)
			}
		}
	}
}

// runFail runs bin, fails the test unless it exits non-zero, and returns
// its standard error.
func runFail(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Errorf("%s %v: exited 0, want a failure", filepath.Base(bin), args)
	}
	return stderr.String()
}

func extractLine(s, prefix string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// TestCLIBenchSmoke runs antbench on a tiny scale for one table.
func TestCLIBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	antbench := buildTool(t, dir, "antbench")
	out, _ := run(t, antbench, "-scale", "0.004", "-table", "3")
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "lcd+hcd") {
		t.Errorf("antbench table output incomplete:\n%s", out)
	}
	if strings.Contains(out, "ERR") {
		t.Errorf("antbench cell failed:\n%s", out)
	}
}

// TestCLIBenchJSONAndBenchdiff drives the observability pipeline end to
// end: antbench -json writes a schema-versioned report, and
// scripts/benchdiff.go passes on identical reports but exits non-zero on
// an injected 50% regression.
func TestCLIBenchJSONAndBenchdiff(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	antbench := buildTool(t, dir, "antbench")
	repPath := filepath.Join(dir, "old.json")
	out, _ := run(t, antbench, "-json", "-scale", "0.01", "-benches", "emacs", "-out", repPath)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("antbench -json summary missing:\n%s", out)
	}
	raw, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"schema_version": 1`) {
		t.Fatalf("report missing schema version:\n%.400s", raw)
	}

	// Inject a 50% wall-clock regression into a copy (textual surgery
	// would be brittle; reparse with encoding/json via the bench types
	// is what benchdiff itself does, so keep the test independent and
	// rewrite one number with a scanner).
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(newPath, injectRegression(t, raw), 0o644); err != nil {
		t.Fatal(err)
	}

	// Identical reports: exit 0.
	diff := exec.Command("go", "run", "./scripts/benchdiff.go", "-min-seconds", "0", repPath, repPath)
	if out, err := diff.CombinedOutput(); err != nil {
		t.Fatalf("benchdiff on identical reports failed: %v\n%s", err, out)
	}
	// Injected regression: exit non-zero and name the regression.
	diff = exec.Command("go", "run", "./scripts/benchdiff.go", "-threshold", "15", "-min-seconds", "0", repPath, newPath)
	out2, err := diff.CombinedOutput()
	if err == nil {
		t.Fatalf("benchdiff missed injected regression:\n%s", out2)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("benchdiff exit = %v, want status 1\n%s", err, out2)
	}
	if !strings.Contains(string(out2), "REGRESSION") {
		t.Fatalf("benchdiff output missing REGRESSION marker:\n%s", out2)
	}
}

// injectRegression multiplies every wall_seconds in a report by 1.5.
func injectRegression(t *testing.T, raw []byte) []byte {
	t.Helper()
	var rep map[string]interface{}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	runs, ok := rep["runs"].([]interface{})
	if !ok || len(runs) == 0 {
		t.Fatalf("report has no runs")
	}
	for _, r := range runs {
		m := r.(map[string]interface{})
		m["wall_seconds"] = m["wall_seconds"].(float64) * 1.5
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
