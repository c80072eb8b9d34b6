package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"antgrass/internal/blq"
	"antgrass/internal/constraint"
	"antgrass/internal/core"
	"antgrass/internal/metrics"
)

// ReportSchemaVersion identifies the BENCH_*.json layout. History:
//
//	1 — initial schema: host block, per-run wall/phases/counters/peaks.
//	    Optional sections have been added since (serve_load, offline,
//	    memo, go_frontend) and one dropped (async, the sweep of a
//	    parallel engine that no longer exists); readers treat a missing
//	    section as not measured, so neither bumps the version.
//
// Consumers (scripts/benchdiff.go, CI) must refuse versions they do not
// know; producers bump this when a field changes meaning or is removed
// (adding fields is backward compatible and does not bump).
const ReportSchemaVersion = 1

// Report is the machine-readable benchmark report antbench -json emits.
// It is the durable perf trajectory artifact: one file per run of the
// suite, diffable with scripts/benchdiff.go.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"` // RFC 3339
	Host          Host   `json:"host"`
	// Scale is the workload scale every run used (1.0 = paper-sized).
	Scale float64 `json:"scale"`
	Runs  []Run   `json:"runs"`
	// ServeLoad holds the analysis-as-a-service load measurements (QPS
	// and query latency percentiles per workload) when the suite ran
	// with the serve stage enabled. Additive: absent in older reports,
	// schema stays 1, and benchdiff's latency gate applies only to
	// benches present in both reports.
	ServeLoad []ServeLoadRun `json:"serve_load,omitempty"`
	// Offline holds the offline constraint-reduction ladder per workload
	// (counts before/after OVS, HVN, HU and the full stack). Additive:
	// absent in reports from builds before the value-numbering tier,
	// schema stays 1, and benchdiff's offline gate applies only to
	// benches present in both reports.
	Offline []OfflineRun `json:"offline,omitempty"`
	// Memo holds the operation-memoization sweep (MemoConfigs solved
	// plain and with Options.Memo, solutions cross-checked, with the memo
	// engine's hit/miss/eviction/bytes counters). Additive: absent unless
	// -memo ran, schema stays 1, and benchdiff's memo gates apply to the
	// new report's section (hit-rate and error hard gates) and to cells
	// present in both reports (wall gate).
	Memo []MemoRun `json:"memo,omitempty"`
	// GoFrontend holds the real-Go analysis cells (this repository and
	// the pinned stdlib set) produced by antbench -go: generation and
	// solve times, constraint counts, call-graph size and the precision
	// comparison. Additive: absent unless -go ran, schema stays 1, and
	// benchdiff's count-based gate applies only to cells present in both
	// reports.
	GoFrontend []GoFrontendRun `json:"go_frontend,omitempty"`
}

// Host describes the machine and toolchain, so regressions can be told
// apart from hardware changes.
type Host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// Run is one (benchmark, solver configuration) measurement.
type Run struct {
	// Bench is the workload name ("emacs", ...); Algo the solver label
	// in the paper's notation ("lcd+hcd", ...); Pts the points-to
	// representation ("bitmap" or "bdd").
	Bench string `json:"bench"`
	Algo  string `json:"algo"`
	Pts   string `json:"pts"`
	// Workers is the parallel worker count the run was configured with
	// (0 = sequential).
	Workers int `json:"workers"`
	// WallSeconds is the wall-clock time of the whole solve call.
	WallSeconds float64 `json:"wall_seconds"`
	// Phases attributes the wall clock to solver phases (graph.build,
	// solve.propagate, solve.cycledetect, ..., finalize), in
	// registration order. The phases are disjoint and cover the solve,
	// so their sum tracks WallSeconds closely; hcd.offline appears only
	// when the offline pass ran inside the solve call (the suite
	// precomputes and shares it — see OfflineSeconds).
	Phases []metrics.PhaseValue `json:"phases"`
	// Counters are the solver cost counters of the paper's §5.3
	// (propagations, edges_added, cycle_checks, nodes_collapsed, ...)
	// plus rounds, workers and mem_bytes.
	Counters []metrics.CounterValue `json:"counters"`
	// PeakHeapBytes / PeakSysBytes are the largest runtime.MemStats
	// HeapAlloc / Sys observations sampled at round boundaries during
	// the solve — the process-level analogue of the paper's memory
	// columns (MemBytes below is the analytic footprint).
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	PeakSysBytes  uint64 `json:"peak_sys_bytes"`
	// Allocs / AllocBytes are the runtime.MemStats Mallocs / TotalAlloc
	// deltas across the solve call: the allocator traffic the pooled
	// memory engine exists to eliminate. Additive (schema stays 1);
	// absent (zero) in reports from older builds, which disables the
	// benchdiff allocation gate for those cells.
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// MemBytes is the analytic final-state footprint (Stats.MemBytes).
	MemBytes int64 `json:"mem_bytes"`
	// OfflineSeconds is the (shared, precomputed) HCD offline analysis
	// time for this benchmark; zero for configurations without HCD. It
	// is NOT part of WallSeconds, matching Table 3's separate column.
	OfflineSeconds float64 `json:"offline_seconds,omitempty"`
	// Error is the solve error, if any; all measurements are zero then.
	Error string `json:"error,omitempty"`
}

// Key identifies a run for cross-report matching.
func (r Run) Key() string {
	return fmt.Sprintf("%s/%s/%s/w%d", r.Bench, r.Algo, r.Pts, r.Workers)
}

// Counter returns the named cost counter of the run and whether it was
// recorded. Reports from older builds simply lack newer counters, so
// consumers gate on the second return instead of treating zero as
// missing (zero is a legitimate value for e.g. nodes_collapsed).
func (r Run) Counter(name string) (int64, bool) {
	for _, c := range r.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// hostInfo captures the current machine.
func hostInfo() Host {
	return Host{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// Report runs the algorithm matrix with full instrumentation and returns
// the machine-readable report. benches filters workloads (nil = all six);
// algos is the configuration list (nil = AllAlgos, the Table 3 bitmap
// matrix); workers > 1 additionally measures each parallel-capable
// configuration (ParallelAlgos) at that worker count. now stamps
// GeneratedAt.
func (h *Harness) Report(benches []string, algos []AlgoID, workers int, now time.Time) *Report {
	if algos == nil {
		algos = AllAlgos
	}
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		GeneratedAt:   now.UTC().Format(time.RFC3339),
		Host:          hostInfo(),
		Scale:         h.Scale,
	}
	for _, p := range h.Profiles() {
		if benches != nil && !contains(benches, p.Name) {
			continue
		}
		prog := h.Program(p)
		for _, a := range algos {
			rep.Runs = append(rep.Runs, h.reportRun(p.Name, prog, a, 0))
		}
		if workers > 1 {
			for _, a := range ParallelAlgos {
				rep.Runs = append(rep.Runs, h.reportRun(p.Name, prog, a, workers))
			}
		}
	}
	return rep
}

// reportRun measures one instrumented cell.
func (h *Harness) reportRun(bench string, prog *constraint.Program, a AlgoID, workers int) Run {
	reg := metrics.New()
	opts := core.Options{
		Algorithm:    a.Alg,
		WithHCD:      a.HCD,
		BDDPoolNodes: h.PoolNodes,
		Workers:      workers,
		Metrics:      reg,
	}
	run := Run{Bench: bench, Algo: a.Name, Pts: "bitmap", Workers: workers}
	if a.HCD {
		table := h.hcdTable(bench, prog)
		opts.HCDTable = table
		run.OfflineSeconds = table.Duration.Seconds()
	}
	var (
		res *core.Result
		err error
		ms0 runtime.MemStats
		ms1 runtime.MemStats
	)
	// Cells run back to back in one process; without a collection here a
	// small cell's peak-heap sample is dominated by whatever floating
	// garbage the previous (possibly much larger) cell left behind, and
	// the reading becomes a function of run order rather than of the
	// solver under test. Mallocs/TotalAlloc are monotonic and unaffected,
	// and the collection sits outside the timed region.
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if a.BLQ {
		run.Pts = "bdd-relation"
		res, err = blq.Solve(prog, opts)
	} else {
		res, err = core.Solve(prog, opts)
	}
	run.WallSeconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	run.Allocs = ms1.Mallocs - ms0.Mallocs
	run.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		run.Error = err.Error()
		run.WallSeconds = 0
		run.Allocs, run.AllocBytes = 0, 0
		return run
	}
	snap := reg.Snapshot()
	run.Phases = snap.Phases
	run.Counters = snap.Counters
	run.PeakHeapBytes = snap.PeakHeapBytes
	run.PeakSysBytes = snap.PeakSysBytes
	run.MemBytes = res.Stats.MemBytes
	h.logf("  %-12s %-8s w%-2d %8.3fs %9.1f MB peak\n",
		bench, a.Name, workers, run.WallSeconds, float64(run.PeakHeapBytes)/(1<<20))
	return run
}

// WriteJSON serializes the report, indented, with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses and version-checks a report.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parsing report: %w", err)
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return nil, fmt.Errorf("bench: unsupported report schema_version %d (want %d)",
			r.SchemaVersion, ReportSchemaVersion)
	}
	return &r, nil
}

// PhaseTotalSeconds sums a run's phase breakdown.
func (r Run) PhaseTotalSeconds() float64 {
	var total float64
	for _, p := range r.Phases {
		total += p.Seconds
	}
	return total
}
