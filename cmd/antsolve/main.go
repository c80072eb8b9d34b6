// Command antsolve runs a pointer analysis over a constraint file.
//
// Usage:
//
//	antsolve [-alg lcd] [-hcd] [-hvn] [-hu] [-ovs] [-pts bitmap|bdd] [-workers n]
//	         [-memo] [-timeout d] [-stats] [-phases] [-print] [-var name]
//	         [-cpuprofile f] [-memprofile f] file
//	antsolve -lang=go [flags] module-dir | pkg,pkg,...
//	antsolve -list
//
// The input is the antgrass text constraint format (see README.md); "-"
// reads stdin. With -lang=go the argument is instead a Go module
// directory (or a comma-separated standard-library package list) whose
// constraints are generated by the Go front end (docs/GOFRONTEND.md). With -print the full solution is dumped (one line per
// variable with a non-empty points-to set); -var restricts output to one
// variable by name. -workers ≥ 2 enables parallel propagation for the
// naive and lcd solvers (asynchronous owner-sharded propagation with
// token-ring termination; same solution as sequential); -timeout aborts a
// runaway solve (exit status 1).
//
// -phases prints the per-phase wall-clock breakdown recorded by the
// metrics registry (graph build, cycle detection, propagation, ...).
// -cpuprofile and -memprofile write runtime/pprof profiles covering the
// solve, for use with `go tool pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"antgrass"
)

func main() {
	alg := flag.String("alg", "lcd", "algorithm: naive, lcd, ht, pkh, pkw, blq")
	hcd := flag.Bool("hcd", false, "enable hybrid cycle detection")
	hvnFlag := flag.Bool("hvn", false, "run offline HVN value numbering first")
	hu := flag.Bool("hu", false, "run offline HU value numbering (union-evaluating, implies running after -hvn when both set)")
	ovs := flag.Bool("ovs", false, "run offline variable substitution first (after -hvn/-hu)")
	repr := flag.String("pts", "bitmap", "points-to representation: bitmap or bdd")
	workers := flag.Int("workers", 0, "parallel propagation workers for naive/lcd (0 or 1 = sequential)")
	memoFlag := flag.Bool("memo", false, "memoize repeated unions, diffs and offset-derefs on canonical set ids (same solution; see Options.Memo)")
	timeout := flag.Duration("timeout", 0, "abort the solve after this duration (0 = no limit)")
	stats := flag.Bool("stats", false, "print solver cost counters")
	phases := flag.Bool("phases", false, "print the per-phase timing breakdown")
	print := flag.Bool("print", false, "print the full points-to solution")
	varName := flag.String("var", "", "print the solution of one variable")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the solve to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the solve to this file")
	list := flag.Bool("list", false, "list the synthetic workload catalog and exit")
	lang := flag.String("lang", "constraints", `input language: "constraints" (text format) or "go" (the argument is a Go module directory, or a comma-separated stdlib package list)`)
	flag.Parse()
	if *list {
		for _, w := range antgrass.Workloads() {
			fmt.Printf("%-12s %7d constraints  %s\n", w.Name, w.Constraints, w.Description)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: antsolve [flags] <file.constraints | - | module-dir (with -lang=go)>")
		os.Exit(2)
	}

	var prog *antgrass.Program
	switch *lang {
	case "go":
		// The argument is a module directory, or (if it contains a comma
		// or resolves to no directory) a stdlib package list.
		opts := antgrass.GoOptions{}
		arg := flag.Arg(0)
		if st, err := os.Stat(arg); err == nil && st.IsDir() {
			opts.Dir = arg
		} else {
			opts.Packages = strings.Split(arg, ",")
		}
		unit, err := antgrass.CompileGo(opts)
		if err != nil {
			fatal(err)
		}
		for _, w := range unit.Warnings {
			fmt.Fprintln(os.Stderr, "warning:", w)
		}
		prog = unit.Prog
	case "constraints":
		var in io.Reader
		if flag.Arg(0) == "-" {
			in = os.Stdin
		} else {
			f, err := os.Open(flag.Arg(0))
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			in = f
		}
		var err error
		prog, err = antgrass.ReadProgram(in)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown -lang %q", *lang))
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var reg *antgrass.Metrics
	if *phases {
		reg = antgrass.NewMetrics()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	res, err := antgrass.Solve(ctx, prog, antgrass.Options{
		Algorithm: antgrass.Algorithm(*alg),
		HCD:       *hcd,
		HVN:       *hvnFlag,
		HU:        *hu,
		OVS:       *ovs,
		Pts:       antgrass.Repr(*repr),
		Workers:   *workers,
		Memo:      *memoFlag,
		Metrics:   reg,
	})
	if err != nil {
		fatal(err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	s := res.Stats()
	nonEmpty, totalSize := 0, 0
	for v := uint32(0); v < uint32(prog.NumVars); v++ {
		if n := res.PointsToLen(v); n > 0 {
			nonEmpty++
			totalSize += n
		}
	}
	fmt.Printf("solved %d constraints over %d vars with %s%s in %v\n",
		len(prog.Constraints), prog.NumVars, *alg, suffixes(*hcd, *hvnFlag, *hu, *ovs), s.SolveDuration)
	avg := 0.0
	if nonEmpty > 0 {
		avg = float64(totalSize) / float64(nonEmpty)
	}
	fmt.Printf("non-empty points-to sets: %d (avg size %.2f), memory %.1f MB\n",
		nonEmpty, avg, float64(s.MemBytes)/(1<<20))
	if res.HVNStats != nil {
		fmt.Printf("hvn: %d -> %d constraints (%.0f%% reduction, %d vars merged) in %v\n",
			res.HVNStats.Before, res.HVNStats.After, res.HVNStats.ReductionPercent(),
			res.HVNStats.MergedVars, res.HVNStats.Duration)
	}
	if res.HUStats != nil {
		fmt.Printf("hu:  %d -> %d constraints (%.0f%% reduction, %d vars merged) in %v\n",
			res.HUStats.Before, res.HUStats.After, res.HUStats.ReductionPercent(),
			res.HUStats.MergedVars, res.HUStats.Duration)
	}
	if res.OVSStats != nil {
		fmt.Printf("ovs: %d -> %d constraints (%.0f%% reduction) in %v\n",
			res.OVSStats.Before, res.OVSStats.After, res.OVSStats.ReductionPercent(), res.OVSStats.Duration)
	}
	if *stats {
		fmt.Printf("nodes collapsed:  %d\n", s.NodesCollapsed)
		fmt.Printf("nodes searched:   %d\n", s.NodesSearched)
		fmt.Printf("propagations:     %d\n", s.Propagations)
		fmt.Printf("edges added:      %d\n", s.EdgesAdded)
		fmt.Printf("cycle checks:     %d\n", s.CycleChecks)
		fmt.Printf("hcd collapses:    %d\n", s.HCDCollapses)
		if *hcd {
			fmt.Printf("hcd offline time: %v\n", s.OfflineDuration)
		}
	}
	if reg != nil {
		snap := reg.Snapshot()
		fmt.Println("phases:")
		for _, p := range snap.Phases {
			fmt.Printf("  %-18s %.6fs\n", p.Name, p.Seconds)
		}
		if snap.PeakHeapBytes > 0 {
			fmt.Printf("  peak heap          %.1f MB\n", float64(snap.PeakHeapBytes)/(1<<20))
		}
	}
	if *varName != "" {
		id, found := findVar(prog, *varName)
		if !found {
			fatal(fmt.Errorf("no variable named %q", *varName))
		}
		printVar(prog, res, id)
		return
	}
	if *print {
		for v := uint32(0); v < uint32(prog.NumVars); v++ {
			if res.PointsToLen(v) > 0 {
				printVar(prog, res, v)
			}
		}
	}
}

func suffixes(hcd, hvn, hu, ovs bool) string {
	out := ""
	if hcd {
		out += "+hcd"
	}
	if hvn {
		out += "+hvn"
	}
	if hu {
		out += "+hu"
	}
	if ovs {
		out += "+ovs"
	}
	return out
}

func findVar(p *antgrass.Program, name string) (uint32, bool) {
	for v := uint32(0); v < uint32(p.NumVars); v++ {
		if p.NameOf(v) == name {
			return v, true
		}
	}
	return 0, false
}

func printVar(p *antgrass.Program, r *antgrass.Result, v uint32) {
	fmt.Printf("%s -> {", p.NameOf(v))
	for i, o := range r.PointsTo(v) {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Print(p.NameOf(o))
	}
	fmt.Println("}")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "antsolve:", err)
	os.Exit(1)
}
