// Command antcgen compiles C-subset source files into an inclusion
// constraint file (the role CIL's constraint generator plays in the
// paper's pipeline).
//
// Usage:
//
//	antcgen [-o out.constraints] [-w] file.c [file2.c ...]
//
// Multiple files are concatenated into one translation unit (the front-end
// is preprocessor-free; headers should already be inlined or expressed as
// prototypes). -w prints front-end warnings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"antgrass"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	warn := flag.Bool("w", false, "print front-end warnings to stderr")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: antcgen [-o out] file.c ...")
		os.Exit(2)
	}
	var sb strings.Builder
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		sb.Write(data)
		sb.WriteByte('\n')
	}
	unit, err := antgrass.CompileC(sb.String(), antgrass.CGenOptions{})
	if err != nil {
		fatal(err)
	}
	if *warn {
		for _, w := range unit.Warnings {
			fmt.Fprintln(os.Stderr, "warning:", w)
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w = f
	}
	if err := antgrass.WriteProgram(w, unit.Prog); err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := w.Close(); err != nil {
			fatal(err)
		}
	}
	na, nc, nl, ns := unit.Prog.Counts()
	fmt.Fprintf(os.Stderr, "antcgen: %d vars, %d constraints (%d addr, %d copy, %d load, %d store)\n",
		unit.Prog.NumVars, len(unit.Prog.Constraints), na, nc, nl, ns)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "antcgen:", err)
	os.Exit(1)
}
