package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"

	"antgrass"
	"antgrass/internal/oracle"
)

// referenceSets adapts oracle.Reference's per-variable maps to the digest.
type referenceSets []map[uint32]bool

func (r referenceSets) PointsTo(v uint32) []uint32 {
	out := make([]uint32, 0, len(r[v]))
	for x := range r[v] {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// oracleDigest solves p with the repository's independent reference
// evaluator. It takes from seconds to minutes per program and is never
// called by a benchmark run.
func oracleDigest(p *antgrass.Program) string {
	return solutionDigest(referenceSets(oracle.Reference(p)), p.NumVars)
}

// agreedDigest is the answer for programs too large for the reference
// evaluator: three solver configurations must agree on it, and it must
// satisfy every constraint.
func agreedDigest(p *antgrass.Program) (string, error) {
	var first string
	for _, o := range []antgrass.Options{
		{Algorithm: antgrass.LCD, HCD: true},
		{Algorithm: antgrass.LCD},
		{Algorithm: antgrass.LCD, HCD: true, Workers: 2},
	} {
		res, err := antgrass.Solve(context.Background(), p, o)
		if err != nil {
			return "", err
		}
		d := solutionDigest(res, p.NumVars)
		if first == "" {
			if err := antgrass.VerifySolution(p, res); err != nil {
				return "", err
			}
			first = d
		} else if d != first {
			return "", fmt.Errorf("solver configurations disagree")
		}
	}
	return first, nil
}

// recordSynth records one synthetic program: wine's answer by agreement,
// every other one's by the reference evaluator.
func recordSynth(in synthInput) (recorded, error) {
	p, err := antgrass.ReadProgram(bytes.NewReader(in.text))
	if err != nil {
		return recorded{}, err
	}
	rec := recorded{Input: in.digest}
	if in.name == "wine" {
		// The reference evaluator needs tens of minutes and gigabytes
		// on wine.
		rec.By = "lcd+hcd, lcd and lcd+hcd on 2 workers agree; VerifySolution"
		rec.Solution, err = agreedDigest(p)
	} else {
		rec.By, rec.Solution = "oracle", oracleDigest(p)
		var res *antgrass.Result
		res, err = antgrass.Solve(context.Background(), p, antgrass.Options{Algorithm: antgrass.LCD, HCD: true})
		if err == nil && solutionDigest(res, p.NumVars) != rec.Solution {
			fmt.Fprintf(os.Stderr, "perfbench: %s: the solver's answer differs from the reference's\n", in.name)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: recorded %s\n", in.name)
	return rec, err
}

// recordDigests prints the digests.json entries for one workload's inputs
// at seed: what the inputs are and what the correct answers are.
func recordDigests(name string, seed int64) int {
	var out any
	switch name {
	case "go-stdlib":
		unit, err := antgrass.CompileGo(antgrass.GoOptions{Packages: stdlibPackages})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res, err := antgrass.Solve(context.Background(), unit.Prog, goOptions(nil))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		edges, warnings := len(antgrass.CallGraph(unit, res)), len(unit.Warnings)
		rec := recorded{Input: programDigest(unit.Prog), Solution: oracleDigest(unit.Prog), By: "oracle", CallEdges: &edges, Warnings: &warnings}
		if d := solutionDigest(res, unit.Prog.NumVars); d != rec.Solution {
			fmt.Fprintf(os.Stderr, "perfbench: the solver's answer %s differs from the reference's\n", d)
		}
		out = map[string]any{"go_stdlib": map[string]recorded{runtime.Version(): rec}}
	default:
		progs, table2 := map[string]recorded{}, map[string]recorded{}
		for _, n := range paperNames() {
			rec, err := recordSynth(paperInput(seed, n))
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
				return 1
			}
			if pinnedProfiles[n] {
				table2[n] = rec
			} else {
				progs[n] = rec
			}
		}
		rec, err := recordSynth(table2Input("ghostscript"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: ghostscript: %v\n", err)
			return 1
		}
		table2["ghostscript"] = rec
		out = map[string]any{"paper": map[string]any{strconv.FormatInt(seed, 10): progs}, "table2": table2}
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(string(b))
	return 0
}
