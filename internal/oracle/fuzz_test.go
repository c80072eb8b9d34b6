package oracle

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/synth"
)

// Fuzzing cost bounds: the matrix runs ~34 solver configurations per
// input, so inputs are capped to keep per-execution time in the low
// milliseconds and let the fuzzer explore shapes instead of sizes.
const (
	fuzzMaxVars        = 48
	fuzzMaxConstraints = 96
)

func checkNoDivergence(t *testing.T, p *constraint.Program) {
	t.Helper()
	if p.NumVars > fuzzMaxVars || len(p.Constraints) > fuzzMaxConstraints {
		t.Skip("oversized input")
	}
	d, err := Check(p)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		var buf bytes.Buffer
		constraint.Write(&buf, p)
		t.Fatalf("divergence: %s\nprogram (add to testdata/corpus/ after shrinking):\n%s", d, buf.String())
	}
}

// FuzzSolversMatchReference feeds constraint files (the text format of
// internal/constraint) through the full configuration matrix. The
// committed corpus seeds it, so every historical failure is a starting
// point for mutation; invalid files are skipped, not failures.
func FuzzSolversMatchReference(f *testing.F) {
	for _, path := range corpusFiles(f) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaresMoreVars(data, fuzzMaxVars) {
			t.Skip("oversized input")
		}
		p, err := constraint.Read(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		checkNoDivergence(t, p)
	})
}

// declaresMoreVars reports whether a numvars line of data declares more
// than max variables. constraint.Read sizes its name and span tables to
// the declared universe on the first name or span line, so such an input
// must be skipped before it is read, not after.
func declaresMoreVars(data []byte, max uint64) bool {
	for _, line := range bytes.Split(data, []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) >= 2 && string(f[0]) == "numvars" {
			if n, err := strconv.ParseUint(string(f[1]), 10, 32); err == nil && n > max {
				return true
			}
		}
	}
	return false
}

// FuzzSolversMatchReferenceSynth is the same property driven through
// synth.FromBytes, which decodes *every* input into a valid program:
// mutation explores constraint-system shapes directly instead of fighting
// the text parser. Seeds are the serialized corpus programs re-encoded as
// generator input plus a few fixed patterns.
func FuzzSolversMatchReferenceSynth(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 2, 0, 1, 2, 1, 0, 2, 3, 0, 0, 3, 1, 2, 0}) // addr/copy/load/store mix
	f.Add([]byte{2, 9, 2, 0, 3, 1, 3, 4, 0, 2})                         // functions + offset derefs
	f.Add([]byte{1, 1})                                                 // minimal universe
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+4*fuzzMaxConstraints {
			t.Skip("oversized input")
		}
		p := synth.FromBytes(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("synth.FromBytes produced an invalid program: %v", err)
		}
		checkNoDivergence(t, p)
	})
}

// FuzzShrinkIsSafe checks the shrinker's contract on arbitrary programs:
// whatever it returns is a valid program that still satisfies the
// predicate it was given (here: a structural predicate independent of the
// solvers, so this target stays fast).
func FuzzShrinkIsSafe(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 2, 0, 2, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+4*fuzzMaxConstraints {
			t.Skip("oversized input")
		}
		p := synth.FromBytes(data)
		pred := func(q *constraint.Program) bool {
			_, _, loads, stores := q.Counts()
			return loads+stores > 0
		}
		if !pred(p) {
			t.Skip()
		}
		min := Shrink(p, pred)
		if err := min.Validate(); err != nil {
			t.Fatalf("shrunk program invalid: %v", err)
		}
		if !pred(min) {
			t.Fatal("shrunk program lost the predicate")
		}
		if len(min.Constraints) > len(p.Constraints) || min.NumVars > p.NumVars {
			t.Fatal("shrink grew the program")
		}
	})
}
