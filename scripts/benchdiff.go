// Command benchdiff compares two antbench -json reports and fails on
// wall-clock, allocation or peak-memory regressions, making perf
// trajectory a CI gate instead of a hand-read text file.
//
// Usage:
//
//	go run ./scripts/benchdiff.go [-threshold 15] [-min-seconds 0.05] \
//	    [-alloc-threshold 10] [-mem-threshold 10] old.json new.json
//
// Runs are matched by (bench, algo, pts, workers). Exit status:
//
//	0 — no run regressed on any gated dimension
//	1 — at least one regression (wall clock beyond -threshold, allocs
//	    beyond -alloc-threshold, peak heap beyond -mem-threshold, a
//	    workload whose HVN+HU offline constraint reduction beyond
//	    OVS-only shrank by more than -offline-threshold percent relative,
//	    a serve or go_frontend cell beyond its gate, or a memo cell of
//	    new.json with a recorded error or a hit rate below
//	    -memo-threshold percent), or a run present in old.json is missing
//	    from new.json (a silently dropped benchmark must not pass)
//	2 — usage or report-parsing error (including a schema_version this
//	    tool does not understand)
//
// -min-seconds suppresses verdicts when both measurements are under the
// floor: percentage deltas of sub-noise runs are meaningless. The alloc
// and peak-memory gates apply only to cells where both reports carry the
// measurement (reports from before the allocs/alloc_bytes fields existed
// pass the gate vacuously); 0 disables either gate. See
// docs/BENCHMARKS.md for the report schema and the CI workflow.
package main

import (
	"flag"
	"fmt"
	"os"

	"antgrass/internal/bench"
)

func main() {
	threshold := flag.Float64("threshold", 15, "fail when a run is more than this percent slower")
	minSeconds := flag.Float64("min-seconds", 0.05, "ignore runs where both sides are under this many seconds")
	allocThreshold := flag.Float64("alloc-threshold", 10, "fail when a run allocates more than this percent more (0 disables)")
	memThreshold := flag.Float64("mem-threshold", 10, "fail when a run's peak heap grows more than this percent (0 disables)")
	serveThreshold := flag.Float64("serve-threshold", 50, "fail when a serve run's p99 query latency grows more than this percent (0 disables; matched serve runs with errors always fail)")
	offlineThreshold := flag.Float64("offline-threshold", 10, "fail when a workload's HVN+HU extra reduction beyond OVS-only shrinks by more than this percent relative to the baseline (0 disables)")
	goThreshold := flag.Float64("go-threshold", 50, "fail when a go_frontend cell's constraint or call-edge count drifts more than this percent in either direction (0 disables; a cell with an error or empty callgraph always fails)")
	memoThreshold := flag.Float64("memo-threshold", 0, "fail when a memo cell of new.json reports a hit rate below this percent (0 disables the hit-rate gate; every memo cell of new.json is still hard-gated on no error, and matched cells on the main wall threshold)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] [-min-seconds s] [-alloc-threshold pct] [-mem-threshold pct] old.json new.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldRep, err := readReport(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	newRep, err := readReport(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	diff := bench.DiffReports(oldRep, newRep, bench.DiffOptions{
		ThresholdPercent:        *threshold,
		MinSeconds:              *minSeconds,
		AllocThresholdPercent:   *allocThreshold,
		MemThresholdPercent:     *memThreshold,
		ServeThresholdPercent:   *serveThreshold,
		OfflineThresholdPercent: *offlineThreshold,
		GoThresholdPercent:      *goThreshold,
		MemoThresholdPercent:    *memoThreshold,
	})
	diff.Print(os.Stdout)
	if diff.Failed() {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL (wall %.1f%%, allocs %.1f%%, peak-mem %.1f%%)\n",
			*threshold, *allocThreshold, *memThreshold)
		os.Exit(1)
	}
	fmt.Println("benchdiff: OK")
}

func readReport(path string) (*bench.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := bench.ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
