package main

import (
	"bytes"
	"context"
	"os"
	"testing"

	"antgrass"
)

type fakeSets [][]uint32

func (f fakeSets) PointsTo(v uint32) []uint32 { return f[v] }

func TestSolutionDigestSeesEverySet(t *testing.T) {
	a := fakeSets{{1, 2}, {}, {3}}
	b := fakeSets{{1, 2}, {}, {4}}
	c := fakeSets{{1}, {2}, {3}} // same elements, other variables
	da := solutionDigest(a, 3)
	if da == solutionDigest(b, 3) || da == solutionDigest(c, 3) {
		t.Error("different solutions share a digest")
	}
	if da != solutionDigest(fakeSets{{1, 2}, nil, {3}}, 3) {
		t.Error("an empty and a nil set digest differently")
	}
}

// emacsRun solves seed 1's emacs once, as one pass of paper-batch would,
// and returns the workload with the answer's digest recorded for it.
func emacsRun(t *testing.T) (*paperWorkload, string) {
	t.Helper()
	in := paperInput(1, "emacs")
	prog, err := antgrass.ReadProgram(bytes.NewReader(in.text))
	if err != nil {
		t.Fatal(err)
	}
	w := &paperWorkload{inputs: []synthInput{in}}
	res, err := antgrass.Solve(context.Background(), prog, w.options(nil))
	if err != nil {
		t.Fatal(err)
	}
	d := solutionDigest(res, prog.NumVars)
	w.digests = map[string][]string{"emacs": {d, d}}
	w.results = map[string]*antgrass.Result{"emacs": res}
	return w, d
}

func checkWith(w *paperWorkload, rec recorded) *harness {
	h := &harness{seed: 1, ctx: context.Background(), digests: &digestTable{
		Paper: map[string]map[string]recorded{"1": {"emacs": rec}},
	}}
	w.check(h)
	return h
}

func TestCorrectnessGateRejectsACorruptedDigest(t *testing.T) {
	w, d := emacsRun(t)
	if h := checkWith(w, recorded{Solution: d}); h.failed != 0 || len(h.problems) != 0 {
		t.Fatalf("the true digest failed the check: %v", h.problems)
	}
	corrupt := []byte(d)
	corrupt[10] ^= 1
	h := checkWith(w, recorded{Solution: string(corrupt)})
	if h.failed != 2 || len(h.problems) != 2 {
		t.Errorf("a corrupted digest failed %d of 2 ops (%v)", h.failed, h.problems)
	}
}

func TestCorrectnessGateRejectsADisagreeingPass(t *testing.T) {
	w, d := emacsRun(t)
	flipped := []byte(d)
	flipped[0] ^= 1
	w.digests["emacs"][1] = string(flipped)
	if h := checkWith(w, recorded{Solution: d}); h.failed != 1 {
		t.Errorf("a pass with a wrong answer failed %d ops, want 1", h.failed)
	}
}

func TestAgreementAcrossRuns(t *testing.T) {
	dir, _ := os.Getwd()
	defer os.Chdir(dir)
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if bad, err := agree(9, map[string]string{"emacs": "aa", "wine": "bb"}); err != nil || len(bad) != 0 {
		t.Fatalf("first run: bad %v, err %v", bad, err)
	}
	if bad, _ := agree(9, map[string]string{"emacs": "aa", "wine": "cc"}); len(bad) != 1 || bad[0] != "wine" {
		t.Errorf("second run with another wine answer: bad %v, want [wine]", bad)
	}
	if bad, _ := agree(10, map[string]string{"wine": "cc"}); len(bad) != 0 {
		t.Errorf("another seed compared against seed 9: bad %v", bad)
	}
}
