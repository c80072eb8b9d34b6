// Command antsynth emits a synthetic benchmark in the antgrass constraint
// format.
//
// Usage:
//
//	antsynth [-bench linux] [-scale 0.1] [-o out.constraints]
//
// Benchmarks are the six Table 2 profiles; scale 1.0 reproduces the
// paper's reduced constraint counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"antgrass"
)

func main() {
	var names []string
	for _, w := range antgrass.Workloads() {
		names = append(names, w.Name)
	}
	bench := flag.String("bench", "linux", "profile: "+strings.Join(names, ", "))
	scale := flag.Float64("scale", 0.1, "constraint-count scale (1.0 = paper size)")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	prog, err := antgrass.Workload(*bench, *scale)
	if err != nil {
		fatal(err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w = f
	}
	if err := antgrass.WriteProgram(w, prog); err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := w.Close(); err != nil {
			fatal(err)
		}
	}
	na, nc, nl, ns := prog.Counts()
	fmt.Fprintf(os.Stderr, "antsynth: %s@%.3g: %d vars, %d constraints (%d addr, %d copy, %d load, %d store)\n",
		*bench, *scale, prog.NumVars, len(prog.Constraints), na, nc, nl, ns)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "antsynth:", err)
	os.Exit(1)
}
