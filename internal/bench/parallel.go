package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"antgrass/internal/constraint"
	"antgrass/internal/core"
)

// ParallelAlgos are the configurations the parallel engine accelerates,
// in table row order: the two parallel-capable solvers plus the paper's
// headline combination.
var ParallelAlgos = []AlgoID{
	{Name: "naive", Alg: core.Naive},
	{Name: "lcd", Alg: core.LCD},
	{Name: "lcd+hcd", Alg: core.LCD, HCD: true},
}

// ParallelBenches are the workloads the parallel comparison runs on — the
// smallest and the most propagation-heavy of Table 2, enough to show both
// the overhead floor and the scaling behavior without a multi-minute run.
var ParallelBenches = []string{"emacs", "wine"}

// ParallelTable prints a parallel-vs-sequential wall-clock comparison for
// the parallel engine at the given worker count: per (workload, algorithm),
// the sequential solve time, the parallel solve time, and the speedup
// (sequential / parallel; above 1.0 means the parallel run was faster).
// Both runs solve the same generated program, and the solutions are
// cross-checked cell by cell — a mismatch aborts the process, since a
// benchmark of wrong answers is worse than no benchmark.
func (h *Harness) ParallelTable(w io.Writer, workers int) {
	fmt.Fprintf(w, "Parallel propagation vs sequential (workers=%d, scale=%g)\n", workers, h.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "\t\tsequential\tparallel\tspeedup\n")
	for _, p := range h.Profiles() {
		if !contains(ParallelBenches, p.Name) {
			continue
		}
		prog := h.Program(p)
		for _, a := range ParallelAlgos {
			opts := core.Options{Algorithm: a.Alg, WithHCD: a.HCD}
			if a.HCD {
				opts.HCDTable = h.hcdTable(p.Name, prog)
			}
			seqRes, seqT := h.timeOne(p.Name, a.Name+" seq", prog, opts)
			opts.Workers = workers
			parRes, parT := h.timeOne(p.Name, fmt.Sprintf("%s par%d", a.Name, workers), prog, opts)
			checkSameSolution(p.Name, a.Name, prog.NumVars, seqRes, parRes)
			fmt.Fprintf(tw, "%s\t%s\t%.3fs\t%.3fs\t%.2fx\n",
				p.Name, a.Name, seqT.Seconds(), parT.Seconds(), seqT.Seconds()/parT.Seconds())
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// timeOne runs one solve and returns the result and its wall-clock time.
func (h *Harness) timeOne(bench, label string, prog *constraint.Program, opts core.Options) (*core.Result, time.Duration) {
	start := time.Now()
	res, err := core.Solve(prog, opts)
	elapsed := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("bench: %s %s: %v", bench, label, err))
	}
	h.logf("  %-12s %-12s %8.3fs\n", bench, label, elapsed.Seconds())
	return res, elapsed
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// checkSameSolution verifies two runs computed identical points-to sets.
func checkSameSolution(bench, algo string, nVars int, a, b *core.Result) {
	if msg := sameSolution(nVars, a, b); msg != "" {
		panic(fmt.Sprintf("bench: %s/%s: parallel and sequential disagree on %s", bench, algo, msg))
	}
}

// sameSolution compares two solutions variable by variable and describes
// the first difference ("" when identical).
func sameSolution(nVars int, a, b *core.Result) string {
	for v := uint32(0); v < uint32(nVars); v++ {
		sa, sb := a.PointsTo(v), b.PointsTo(v)
		la, lb := 0, 0
		if sa != nil {
			la = sa.Len()
		}
		if sb != nil {
			lb = sb.Len()
		}
		if la != lb {
			return fmt.Sprintf("|pts(v%d)|: %d vs %d", v, la, lb)
		}
		if la > 0 && !sa.Equal(sb) {
			return fmt.Sprintf("pts(v%d)", v)
		}
	}
	return ""
}
