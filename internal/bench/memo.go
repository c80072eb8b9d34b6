package bench

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"antgrass/internal/constraint"
	"antgrass/internal/core"
	"antgrass/internal/hcd"
	"antgrass/internal/metrics"
)

// MemoConfig is one solver configuration of the memo sweep. Unlike AlgoID
// it carries difference propagation, which the memo table specializes on
// (the diff-memo path).
type MemoConfig struct {
	Name string
	Alg  core.Algorithm
	HCD  bool
	Diff bool
}

// MemoConfigs are the configurations the memo sweep measures: the
// sequential lcd family, the only solvers Options.Memo serves.
var MemoConfigs = []MemoConfig{
	{Name: "lcd+hcd", Alg: core.LCD, HCD: true},
	{Name: "lcd+hcd+diff", Alg: core.LCD, HCD: true, Diff: true},
}

// MemoRun is one (workload, configuration) cell of the memo sweep: the
// same program solved twice — once plain, once with Options.Memo — with
// the solutions cross-checked element by element, the wall/allocation
// deltas, and the memo engine's own effectiveness counters.
type MemoRun struct {
	Bench string `json:"bench"`
	Algo  string `json:"algo"`
	// Workers is always 0 (memoization serves the sequential solvers); it
	// stays in the key so cells never match the parallel memo cells older
	// reports carried.
	Workers int `json:"workers"`
	// PlainSeconds / MemoSeconds are the wall-clock times of the two
	// solves; Speedup is PlainSeconds/MemoSeconds (above 1.0 means the
	// memoized solve was faster).
	PlainSeconds float64 `json:"plain_seconds"`
	MemoSeconds  float64 `json:"memo_seconds"`
	Speedup      float64 `json:"speedup"`
	// PlainAllocs / MemoAllocs are the runtime Mallocs deltas of the two
	// solves — the allocation economy the COW-shared hits buy.
	PlainAllocs uint64 `json:"plain_allocs"`
	MemoAllocs  uint64 `json:"memo_allocs"`
	// Hits / Misses / HitRate / Evictions / MemoBytes are the memo
	// engine's counters from the memoized run (memo_hits, memo_misses,
	// memo_evictions, memo_bytes). HitRate is Hits/(Hits+Misses).
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	HitRate   float64 `json:"hit_rate"`
	Evictions int64   `json:"evictions,omitempty"`
	MemoBytes int64   `json:"memo_bytes,omitempty"`
	// Error is the first solve error or solution mismatch, if any; the
	// measurements are zero then.
	Error string `json:"error,omitempty"`
}

// Key identifies a memo cell for cross-report matching.
func (r MemoRun) Key() string {
	return fmt.Sprintf("%s/%s/w%d/memo", r.Bench, r.Algo, r.Workers)
}

// MemoRuns measures the memo sweep: MemoConfigs over the benchmark set
// (benches filters workloads; nil = all six). A solution mismatch is
// recorded in the cell's Error instead of aborting, so a broken memo
// produces a diffable (and benchdiff-failing) report rather than no
// report at all.
func (h *Harness) MemoRuns(benches []string) []MemoRun {
	var out []MemoRun
	for _, p := range h.Profiles() {
		if benches != nil && !contains(benches, p.Name) {
			continue
		}
		prog := h.Program(p)
		for _, c := range MemoConfigs {
			var table *hcd.Result
			if c.HCD {
				table = h.hcdTable(p.Name, prog) // shared, precomputed
			}
			out = append(out, h.memoRun(p.Name, prog, c, table))
		}
	}
	return out
}

// memoRun measures one plain-vs-memo pair.
func (h *Harness) memoRun(bench string, prog *constraint.Program, c MemoConfig, table *hcd.Result) MemoRun {
	run := MemoRun{Bench: bench, Algo: c.Name}
	opts := core.Options{
		Algorithm:    c.Alg,
		WithHCD:      c.HCD,
		HCDTable:     table,
		DiffProp:     c.Diff,
		BDDPoolNodes: h.PoolNodes,
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC() // see reportRun: decouple the sample from the previous cell
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	plainRes, err := core.Solve(prog, opts)
	plainT := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		run.Error = fmt.Sprintf("plain: %v", err)
		return run
	}
	run.PlainAllocs = ms1.Mallocs - ms0.Mallocs

	reg := metrics.New()
	opts.Memo = true
	opts.Metrics = reg
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	memoRes, err := core.Solve(prog, opts)
	memoT := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		run.Error = fmt.Sprintf("memo: %v", err)
		return run
	}
	run.MemoAllocs = ms1.Mallocs - ms0.Mallocs
	if msg := sameSolution(prog.NumVars, plainRes, memoRes); msg != "" {
		run.Error = "solution mismatch: " + msg
		return run
	}

	run.PlainSeconds = plainT.Seconds()
	run.MemoSeconds = memoT.Seconds()
	if run.MemoSeconds > 0 {
		run.Speedup = run.PlainSeconds / run.MemoSeconds
	}
	snap := reg.Snapshot()
	counter := func(name string) int64 {
		for _, cv := range snap.Counters {
			if cv.Name == name {
				return cv.Value
			}
		}
		return 0
	}
	run.Hits = counter("memo_hits")
	run.Misses = counter("memo_misses")
	if total := run.Hits + run.Misses; total > 0 {
		run.HitRate = float64(run.Hits) / float64(total)
	}
	run.Evictions = counter("memo_evictions")
	run.MemoBytes = counter("memo_bytes")
	h.logf("  %-12s %-14s plain %7.3fs  memo %7.3fs  %5.2fx  %.0f%% hits\n",
		bench, run.Algo, run.PlainSeconds, run.MemoSeconds, run.Speedup, run.HitRate*100)
	return run
}

// MemoTable prints the sweep as a human-readable table.
func (h *Harness) MemoTable(w io.Writer, runs []MemoRun) {
	fmt.Fprintf(w, "Operation memoization vs plain solving (scale=%g)\n", h.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "\t\tplain\tmemo\tspeedup\thit rate\tallocs\tbytes\n")
	for _, r := range runs {
		if r.Error != "" {
			fmt.Fprintf(tw, "%s\t%s\tERROR: %s\n", r.Bench, r.Algo, r.Error)
			continue
		}
		allocDelta := 0.0
		if r.PlainAllocs > 0 {
			allocDelta = (float64(r.MemoAllocs) - float64(r.PlainAllocs)) / float64(r.PlainAllocs) * 100
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3fs\t%.3fs\t%.2fx\t%.0f%%\t%+.1f%%\t%.1f MB\n",
			r.Bench, r.Algo, r.PlainSeconds, r.MemoSeconds, r.Speedup,
			r.HitRate*100, allocDelta, float64(r.MemoBytes)/(1<<20))
	}
	tw.Flush()
	fmt.Fprintln(w)
}
