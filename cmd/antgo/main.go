// Command antgo analyzes real Go code: it parses and typechecks a module
// (or an explicit package list, including standard-library packages),
// generates inclusion constraints under the field-insensitive model of
// docs/GOFRONTEND.md, solves them, and reports analysis results.
//
// Usage:
//
//	antgo [-pkg list] [-tests] [-alg lcd] [-hcd] [-hvn] [-hu] [-ovs]
//	      [-workers n] [-timeout d] [-callgraph] [-modref] [-transitive]
//	      [-var name] [-emit file] [-stats] [dir]
//
// With a directory argument the module rooted there is analyzed (all its
// packages, or just those named by -pkg). Without a directory, -pkg
// names standard-library import paths resolved under GOROOT:
//
//	antgo .                          # analyze the module in cwd
//	antgo -pkg fmt,strings           # analyze stdlib packages
//	antgo -callgraph -modref .       # client analyses
//	antgo -emit prog.constraints .   # dump the constraint program
//	antgo -var 'pkg.main::x' .       # points-to set of one variable
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"antgrass"
)

func main() {
	pkgList := flag.String("pkg", "", "comma-separated import paths to analyze (default: every package in the module)")
	tests := flag.Bool("tests", false, "include in-package _test.go files")
	alg := flag.String("alg", "lcd", "algorithm: naive, lcd, ht, pkh, pkw, blq")
	hcd := flag.Bool("hcd", true, "enable hybrid cycle detection")
	hvnFlag := flag.Bool("hvn", true, "run offline HVN value numbering")
	hu := flag.Bool("hu", true, "run offline HU value numbering")
	ovs := flag.Bool("ovs", true, "run offline variable substitution")
	workers := flag.Int("workers", 0, "parallel propagation workers (0 or 1 = sequential)")
	timeout := flag.Duration("timeout", 0, "abort the solve after this duration")
	callgraph := flag.Bool("callgraph", false, "print the resolved call graph")
	modref := flag.Bool("modref", false, "print MOD/REF side-effect summaries")
	transitive := flag.Bool("transitive", false, "make MOD/REF summaries include callees")
	varName := flag.String("var", "", "print the points-to set of one variable (global, func, or fn::local)")
	emit := flag.String("emit", "", "write the generated constraint program (text format) to this file")
	stats := flag.Bool("stats", false, "print solver cost counters")
	flag.Parse()

	opts := antgrass.GoOptions{IncludeTests: *tests}
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: antgo [flags] [module-dir]")
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		opts.Dir = flag.Arg(0)
	}
	if *pkgList != "" {
		opts.Packages = strings.Split(*pkgList, ",")
	}
	if opts.Dir == "" && len(opts.Packages) == 0 {
		fmt.Fprintln(os.Stderr, "antgo: need a module directory or -pkg list")
		os.Exit(2)
	}

	genStart := time.Now()
	unit, err := antgrass.CompileGo(opts)
	if err != nil {
		fatal(err)
	}
	genDur := time.Since(genStart)
	for _, w := range unit.Warnings {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
	a, c, l, s := unit.Prog.Counts()
	fmt.Printf("generated %d constraints (%d addr, %d copy, %d load, %d store) over %d vars, %d functions in %v\n",
		a+c+l+s, a, c, l, s, unit.Prog.NumVars, len(unit.Funcs), genDur.Round(time.Millisecond))

	if *emit != "" {
		f, err := os.Create(*emit)
		if err != nil {
			fatal(err)
		}
		if err := antgrass.WriteProgram(f, unit.Prog); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *emit)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := antgrass.Solve(ctx, unit.Prog, antgrass.Options{
		Algorithm: antgrass.Algorithm(*alg),
		HCD:       *hcd,
		HVN:       *hvnFlag,
		HU:        *hu,
		OVS:       *ovs,
		Workers:   *workers,
	})
	if err != nil {
		fatal(err)
	}
	st := res.Stats()
	nonEmpty, totalSize := 0, 0
	for v := uint32(0); v < uint32(unit.Prog.NumVars); v++ {
		if n := res.PointsToLen(v); n > 0 {
			nonEmpty++
			totalSize += n
		}
	}
	avg := 0.0
	if nonEmpty > 0 {
		avg = float64(totalSize) / float64(nonEmpty)
	}
	fmt.Printf("solved with %s in %v: %d non-empty points-to sets (avg size %.2f)\n",
		*alg, st.SolveDuration.Round(time.Millisecond), nonEmpty, avg)
	if *stats {
		fmt.Printf("nodes collapsed: %d  propagations: %d  edges added: %d\n",
			st.NodesCollapsed, st.Propagations, st.EdgesAdded)
	}

	edges := antgrass.CallGraph(unit, res)
	indirect := 0
	for _, e := range edges {
		if e.Indirect {
			indirect++
		}
	}
	fmt.Printf("call graph: %d edges (%d via indirect/interface calls) from %d call sites\n",
		len(edges), indirect, len(unit.CallSites))
	if *callgraph {
		for _, e := range edges {
			tag := " "
			if e.Indirect {
				tag = "*"
			}
			fmt.Printf("  %s %-40s -> %s (line %d)\n", tag, e.Caller, e.Callee, e.Line)
		}
	}

	if *modref {
		mr := antgrass.ComputeModRef(unit, res, *transitive)
		fns := make([]string, 0, len(mr.Mod))
		seen := map[string]bool{}
		for fn := range mr.Mod {
			if !seen[fn] {
				seen[fn] = true
				fns = append(fns, fn)
			}
		}
		for fn := range mr.Ref {
			if !seen[fn] {
				seen[fn] = true
				fns = append(fns, fn)
			}
		}
		sort.Strings(fns)
		fmt.Println("mod/ref summaries:")
		for _, fn := range fns {
			fmt.Printf("  %-40s mod=%d ref=%d\n", fn, len(mr.Mod[fn]), len(mr.Ref[fn]))
		}
	}

	if *varName != "" {
		id, ok := unit.VarByName(*varName)
		if !ok {
			fatal(fmt.Errorf("no variable named %q (try pkgpath.name, pkgpath.fn::local, or a function name)", *varName))
		}
		pts := res.PointsTo(id)
		fmt.Printf("pts(%s) = {", *varName)
		for i, o := range pts {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Print(unit.Prog.NameOf(o))
		}
		fmt.Println("}")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "antgo:", err)
	os.Exit(1)
}
