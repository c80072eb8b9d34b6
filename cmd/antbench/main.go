// Command antbench runs the paper's evaluation matrix (§5) on the
// synthetic Table 2 workloads and prints each table and figure.
//
// Usage:
//
//	antbench [-scale 0.1] [-table N | -figure N | -stats | -all]
//	         [-workers N] [-memo] [-timeout d] [-v]
//	antbench -json [-out FILE] [-benches a,b] [-scale S] [-workers N] [-memo]
//
// -scale multiplies the paper's reduced constraint counts (1.0 = full
// paper size; the default keeps a laptop run in minutes).
//
// -workers N prints the parallel-vs-sequential wall-clock comparison of
// the parallel engine at N workers (emacs and wine, naive / lcd /
// lcd+hcd). The comparison defaults to scale 0.25 — large enough for
// multi-second solves — unless -scale is given explicitly. -timeout bounds
// the whole antbench run.
//
// -memo runs the memoization sweep (the sequential lcd family): each cell
// solves the same program plain and with Options.Memo, cross-checks the
// two solutions, and reports wall times, allocation deltas and the memo
// engine's hit/miss/byte counters. With -json the sweep lands in the
// report's memo section.
//
// -json runs the instrumented algorithm matrix and writes a versioned,
// machine-readable report (wall time, per-phase breakdown, peak memory,
// cost counters per run) to BENCH_<timestamp>.json — or to -out — instead
// of printing tables. -benches restricts it to a comma-separated workload
// subset; with -workers N the parallel-capable configurations are
// additionally measured at N workers. Diff two reports with
// scripts/benchdiff.go (see docs/BENCHMARKS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"antgrass"
	"antgrass/internal/bench"
)

func main() {
	scale := flag.Float64("scale", 0.1, "workload scale (1.0 = paper-sized constraint counts)")
	table := flag.Int("table", 0, "print one table (2-6)")
	figure := flag.Int("figure", 0, "print one figure (6-10)")
	stats := flag.Bool("stats", false, "print the §5.3 cost-counter comparison")
	ablations := flag.Bool("ablations", false, "print the design-choice ablations (PKW aggressiveness, worklist strategies, difference propagation)")
	precision := flag.Bool("precision", false, "print the Andersen-vs-Steensgaard precision comparison")
	all := flag.Bool("all", false, "print every table and figure")
	pool := flag.Int("pool", 0, "BDD node-pool size (0 = default)")
	workers := flag.Int("workers", 0, "print the parallel-vs-sequential comparison at this worker count")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	verbose := flag.Bool("v", false, "log each run as it completes")
	jsonOut := flag.Bool("json", false, "write a machine-readable benchmark report instead of printing tables")
	outPath := flag.String("out", "", "report file path for -json (default BENCH_<timestamp>.json)")
	benches := flag.String("benches", "", "comma-separated workload subset for -json (default: all six)")
	serveLoad := flag.Bool("serve", false, "with -json: also measure the analysis-as-a-service query path (QPS, p50/p99 latency per workload)")
	serveReaders := flag.Int("serve-readers", 64, "concurrent readers for -serve")
	serveDuration := flag.Duration("serve-duration", 2*time.Second, "storm duration per workload for -serve")
	memoSweep := flag.Bool("memo", false, "measure operation memoization against plain solving (sequential lcd family); with -json the sweep lands in the memo section")
	goFrontend := flag.Bool("go", false, "measure the real-Go front-end cells (module at -go-dir plus, with -go-std, the pinned stdlib set); with -json they land in the go_frontend section")
	goDir := flag.String("go-dir", ".", "module directory for the -go self cell (empty = skip)")
	goStd := flag.Bool("go-std", true, "with -go: include the pinned stdlib package cell")
	list := flag.Bool("list", false, "list the synthetic workload catalog and exit")
	flag.Parse()
	if *list {
		for _, w := range antgrass.Workloads() {
			fmt.Printf("%-12s %4d KLOC %8d constraints  %s\n", w.Name, w.KLOC, w.Constraints, w.Description)
		}
		return
	}
	scaleSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "scale" {
			scaleSet = true
		}
	})

	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		go func() {
			<-ctx.Done()
			if ctx.Err() == context.DeadlineExceeded {
				fmt.Fprintf(os.Stderr, "antbench: timed out after %v\n", *timeout)
				os.Exit(1)
			}
		}()
	}

	h := bench.NewHarness(*scale)
	h.PoolNodes = *pool
	if *verbose {
		h.Progress = os.Stderr
	}
	out := os.Stdout

	if *jsonOut {
		var names []string
		if *benches != "" {
			for _, b := range strings.Split(*benches, ",") {
				names = append(names, strings.TrimSpace(b))
			}
		}
		now := time.Now()
		rep := h.Report(names, nil, *workers, now)
		if len(rep.Runs) == 0 {
			fmt.Fprintf(os.Stderr, "antbench: no workloads matched -benches %q\n", *benches)
			os.Exit(2)
		}
		if *serveLoad {
			rep.ServeLoad = h.ServeLoad(names, *serveReaders, *serveDuration)
		}
		// The offline reduction ladder is deterministic and cheap (no
		// fixpoint), so every report carries it; benchdiff gates on the
		// HVN+HU win beyond OVS-only.
		rep.Offline = h.OfflineRuns(names)
		if *memoSweep {
			rep.Memo = h.MemoRuns(names)
		}
		if *goFrontend {
			rep.GoFrontend = h.GoFrontendRuns(*goDir, *goStd)
		}
		path := *outPath
		if path == "" {
			path = "BENCH_" + now.UTC().Format("20060102T150405Z") + ".json"
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "antbench: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "antbench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "wrote %s (%d runs)\n", path, len(rep.Runs))
		return
	}

	if *goFrontend {
		h.GoFrontendTable(out, *goDir, *goStd)
		if *table == 0 && *figure == 0 && !*stats && !*ablations && !*precision && !*all && *workers == 0 && !*memoSweep {
			return
		}
	}

	if *memoSweep {
		h.MemoTable(out, h.MemoRuns(nil))
		if *table == 0 && *figure == 0 && !*stats && !*ablations && !*precision && !*all && *workers == 0 {
			return
		}
	}

	if *workers > 0 {
		ph := h
		if !scaleSet {
			// The parallel comparison needs multi-second solves to
			// be meaningful; the table defaults smaller.
			ph = bench.NewHarness(0.25)
			ph.PoolNodes = *pool
			ph.Progress = h.Progress
		}
		ph.ParallelTable(out, *workers)
		if *table == 0 && *figure == 0 && !*stats && !*ablations && !*precision && !*all {
			return
		}
	}
	if !*all && *table == 0 && *figure == 0 && !*stats && !*ablations && !*precision {
		*all = true
	}
	if *all {
		h.Table2(out)
		h.Table3(out)
		h.Table4(out)
		h.Table5(out)
		h.Table6(out)
		h.Figure6(out)
		h.Figure7(out)
		h.Figure8(out)
		h.Figure9(out)
		h.Figure10(out)
		h.StatsTable(out)
		h.Ablations(out)
		h.PrecisionTable(out)
		return
	}
	switch *table {
	case 0:
	case 2:
		h.Table2(out)
	case 3:
		h.Table3(out)
	case 4:
		h.Table4(out)
	case 5:
		h.Table5(out)
	case 6:
		h.Table6(out)
	default:
		fmt.Fprintf(os.Stderr, "antbench: no table %d (tables 2-6)\n", *table)
		os.Exit(2)
	}
	switch *figure {
	case 0:
	case 6:
		h.Figure6(out)
	case 7:
		h.Figure7(out)
	case 8:
		h.Figure8(out)
	case 9:
		h.Figure9(out)
	case 10:
		h.Figure10(out)
	default:
		fmt.Fprintf(os.Stderr, "antbench: no figure %d (figures 6-10)\n", *figure)
		os.Exit(2)
	}
	if *stats {
		h.StatsTable(out)
	}
	if *ablations {
		h.Ablations(out)
	}
	if *precision {
		h.PrecisionTable(out)
	}
}
