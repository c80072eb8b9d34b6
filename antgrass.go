// Package antgrass is a Go implementation of inclusion-based
// (Andersen-style) pointer analysis with Lazy Cycle Detection and Hybrid
// Cycle Detection, reproducing Hardekopf and Lin, "The Ant and the
// Grasshopper: Fast and Accurate Pointer Analysis for Millions of Lines of
// Code" (PLDI 2007).
//
// The package offers:
//
//   - six solvers — the paper's LCD and HCD plus reimplementations of the
//     Heintze–Tardieu (HT), Pearce–Kelly–Hankin (PKH, and the earlier PKW),
//     and Berndl et al. (BLQ, BDD-based) algorithms — all combinable with
//     HCD and all producing identical solutions;
//   - two points-to set representations (GCC-style sparse bitmaps and
//     BDDs);
//   - a C-subset front-end generating constraints (CompileC);
//   - Offline Variable Substitution pre-processing;
//   - synthetic workload generation shaped like the paper's benchmarks.
//
// Typical use:
//
//	unit, _ := antgrass.CompileC(src, antgrass.CGenOptions{})
//	res, _ := antgrass.Solve(ctx, unit.Prog, antgrass.Options{Algorithm: antgrass.LCD, HCD: true})
//	for _, o := range res.PointsTo(v) { ... }
//
// For a resident analysis that absorbs program edits and serves
// concurrent queries, see Session (and cmd/antserve for the HTTP
// daemon form).
package antgrass

import (
	"context"
	"fmt"
	"io"

	"antgrass/internal/blq"
	"antgrass/internal/cgen"
	"antgrass/internal/constraint"
	"antgrass/internal/core"
	"antgrass/internal/gogen"
	"antgrass/internal/hcd"
	"antgrass/internal/hvn"
	"antgrass/internal/metrics"
	"antgrass/internal/olf"
	"antgrass/internal/ovs"
	"antgrass/internal/pts"
	"antgrass/internal/steens"
	"antgrass/internal/synth"
)

// VarID identifies a program variable (a memory location). IDs are dense
// starting at 0.
type VarID = constraint.VarID

// Program is an inclusion-constraint system (see the constraint file
// format in README.md).
type Program = constraint.Program

// Unit is a compiled C translation unit: constraints plus name tables.
type Unit = cgen.Unit

// Stats holds the solver cost counters of the paper's §5.3 plus timing and
// analytic memory accounting.
type Stats = core.Stats

// Algorithm names a solver.
type Algorithm string

// The available solvers.
const (
	// Naive is the baseline worklist algorithm with no cycle detection
	// (Figure 1 of the paper).
	Naive Algorithm = "naive"
	// LCD is Lazy Cycle Detection (Figure 2), one of the paper's two
	// contributions.
	LCD Algorithm = "lcd"
	// HT is the Heintze–Tardieu pre-transitive-graph algorithm.
	HT Algorithm = "ht"
	// PKH is Pearce–Kelly–Hankin's periodic-sweep algorithm.
	PKH Algorithm = "pkh"
	// PKW is Pearce–Kelly–Hankin's earlier per-insertion algorithm
	// (the over-aggressive ablation of §5.3).
	PKW Algorithm = "pkw"
	// BLQ is Berndl et al.'s BDD-relation solver.
	BLQ Algorithm = "blq"
)

// Repr selects the points-to set representation (§5.4).
type Repr string

// The available representations.
const (
	// Bitmap uses GCC-style sparse bitmaps (Tables 3-4).
	Bitmap Repr = "bitmap"
	// BDD gives each variable its own BDD over a shared manager
	// (Tables 5-6). Ignored by the BLQ solver, which always stores the
	// whole relation in one BDD.
	BDD Repr = "bdd"
)

// Options configures Solve.
type Options struct {
	// Algorithm selects the solver; empty means LCD.
	Algorithm Algorithm
	// HCD enables Hybrid Cycle Detection (the paper's second
	// contribution): a linear-time offline pass whose table lets the
	// online solver collapse cycles without graph traversal. LCD+HCD
	// is the paper's headline configuration.
	HCD bool
	// HVN runs offline hash-based value numbering (the companion paper's
	// HVN pass) before solving: variables with provably identical
	// points-to sets are unified and provably-empty ones have their
	// constraints dropped, without changing any answer. Runs before HU
	// and OVS in the offline pipeline.
	HVN bool
	// HU runs the union-evaluating HU value-numbering pass (strictly
	// stronger than HVN, a bit more offline work). When combined with
	// HVN, HU runs second, on the already-reduced system.
	HU bool
	// OVS runs Offline Variable Substitution first, typically shrinking
	// the constraint system substantially without changing any answer.
	// In the offline pipeline it runs last, after HVN/HU.
	OVS bool
	// Pts selects the points-to set representation; empty means Bitmap.
	Pts Repr
	// DiffProp enables difference propagation on the Naive and LCD
	// solvers (Pearce et al.'s optimization; see the ablation study).
	// Ignored under parallel solving, whose owners propagate deltas
	// inherently.
	DiffProp bool
	// BDDPoolNodes pre-sizes BDD pools (0 = default).
	BDDPoolNodes int
	// Workers ≥ 2 enables parallel propagation for the Naive and LCD
	// solvers with bitmap points-to sets: Workers owner goroutines
	// exchange points-to deltas through mailboxes, with token-ring
	// termination detection and no round barrier (docs/ALGORITHMS.md
	// §Parallel solving). Any other configuration solves sequentially
	// regardless of Workers. The points-to solution is identical for
	// every worker count. 0 and 1 mean sequential.
	Workers int
	// Memo enables operation-level memoization (an MDE-style dedup
	// engine) in the sequential Naive and LCD solvers: repeated unions,
	// set differences, and offset-dereference expansions are answered
	// from a cache keyed on canonical interned set ids instead of
	// recomputed. Every other configuration — HT, PKH, PKW, BLQ, BDD
	// sets, and parallel solving (Workers ≥ 2) — ignores the flag. The
	// solution is bit-identical with and without it; the memo_hits /
	// memo_misses / memo_evictions / memo_bytes counters in Metrics
	// report cache effectiveness.
	Memo bool
	// Progress, when non-nil, is called at token-lap boundaries of the
	// parallel solver (and periodically by the sequential Naive/LCD
	// solvers) with a snapshot of solver progress. It runs on the
	// solving goroutine and must return quickly.
	Progress func(ProgressEvent)
	// Metrics, when non-nil, collects the solve's observability data:
	// per-phase wall-clock attribution (offline passes vs. graph
	// construction vs. propagation vs. cycle detection), peak-memory
	// samples taken at round boundaries, and the final cost counters.
	// Create one with NewMetrics and read it back with
	// Metrics.Snapshot after the solve. nil disables instrumentation
	// with no measurable overhead.
	Metrics *Metrics
}

// Metrics is the solver observability registry: named counters, phase
// timers, and peak-memory samples. A nil *Metrics is valid and disables
// all instrumentation.
type Metrics = metrics.Registry

// MetricsSnapshot is a point-in-time, serializable copy of a Metrics
// registry.
type MetricsSnapshot = metrics.Snapshot

// NewMetrics returns an empty metrics registry to pass in Options.
func NewMetrics() *Metrics { return metrics.New() }

// ProgressEvent is a solver-progress snapshot delivered to
// Options.Progress: the round number, the pending worklist size, and the
// cumulative nodes-collapsed and points-to-union counters.
type ProgressEvent = core.ProgressEvent

// Result is a solved pointer analysis over the original variable ids (all
// pre-processing and cycle collapsing is transparent to queries). It is a
// query wrapper around the immutable Snapshot of the epoch it was
// computed from: a Result obtained before a concurrent Session.Update
// keeps answering from its own epoch, never from a half-solved newer one.
type Result struct {
	snap *Snapshot
	// OVSStats describes the pre-processing step when Options.OVS was
	// set (nil otherwise). It carries counts and durations only: its
	// Reduced program and PreUnions are nil once the solve has used them.
	OVSStats *ovs.Result
	// HVNStats describes the HVN value-numbering pass when Options.HVN
	// was set (nil otherwise), with counts and durations only, as
	// OVSStats.
	HVNStats *hvn.Result
	// HUStats describes the HU value-numbering pass when Options.HU was
	// set (nil otherwise), with counts and durations only, as OVSStats.
	HUStats *hvn.Result
}

// Stats returns the solver's cost counters.
func (r *Result) Stats() Stats { return r.snap.Stats() }

// Epoch returns the solve generation this result was computed from
// (1 for a one-shot Solve).
func (r *Result) Epoch() uint64 { return r.snap.Epoch() }

// Snapshot returns the immutable epoch view backing this result.
func (r *Result) Snapshot() *Snapshot { return r.snap }

// PointsTo returns the points-to set of v in ascending order.
func (r *Result) PointsTo(v VarID) []VarID { return r.snap.PointsTo(v) }

// PointsToLen returns |pts(v)| without materializing the set.
func (r *Result) PointsToLen(v VarID) int { return r.snap.PointsToLen(v) }

// Contains reports whether loc ∈ pts(v).
func (r *Result) Contains(v, loc VarID) bool { return r.snap.Contains(v, loc) }

// Alias reports whether a and b may alias (their points-to sets
// intersect).
func (r *Result) Alias(a, b VarID) bool { return r.snap.Alias(a, b) }

// Rep returns v's constraint-graph representative after cycle collapsing;
// variables with equal representatives provably have identical points-to
// sets.
func (r *Result) Rep(v VarID) VarID { return r.snap.Rep(v) }

// Solve is the primary entry point: it runs the configured analysis on p
// under ctx and returns the solution frozen as an immutable snapshot. p
// itself is never modified. It is the one-shot form of NewSession — a
// session is created, solved, and closed — for callers that don't need
// incremental updates. The Result holds the solution and nothing of the
// solver: its sets are copied out of the solver's element pools (see
// Snapshot).
//
// Cancellation is cooperative: the solvers check ctx every few thousand
// worklist pops (the parallel owners and the sequential worklist
// solvers) or between fixpoint iterations (HT, PKH, BLQ). When
// ctx is canceled or its deadline passes, Solve returns an error wrapping
// context.Canceled or context.DeadlineExceeded — test with errors.Is —
// and never a partial Result.
func Solve(ctx context.Context, p *Program, o Options) (*Result, error) {
	// The one-shot session skips NewSession's defensive clone: no Update
	// can ever mutate it.
	s, err := newSession(ctx, p, o, true)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Result(), nil
}

// offlineStats collects the per-pass results of the offline constraint
// pipeline (HVN → HU → OVS; nil for passes that did not run). solveOnce
// drops each result's Reduced program and PreUnions as soon as the next
// stage has taken them, so the results keep counts and durations only.
type offlineStats struct {
	hvn *hvn.Result
	hu  *hvn.Result
	ovs *ovs.Result
}

// solveOnce is the non-incremental solve pipeline behind Solve and the
// Session replay path: the offline passes (HVN, then HU, then OVS, each on
// the previous pass's reduced system), algorithm dispatch, one fixpoint.
// The passes' pre-unions are concatenated and applied by the solver before
// constraints, so queries on original variable ids are transparent.
func solveOnce(ctx context.Context, p *Program, o Options) (*core.Result, offlineStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Algorithm == "" {
		o.Algorithm = LCD
	}
	if o.Pts == "" {
		o.Pts = Bitmap
	}
	prog := p
	var off offlineStats
	var preUnions [][2]uint32
	if o.HVN {
		red := hvn.Reduce(prog, false)
		o.Metrics.AddPhase(metrics.PhaseHVN, red.Duration)
		o.Metrics.SetCounter("hvn_merged_vars", int64(red.MergedVars))
		o.Metrics.SetCounter("hvn_dropped_constraints", int64(red.Before-red.After))
		off.hvn = red
		prog = red.Reduced
		preUnions = append(preUnions, red.PreUnions...)
		red.Reduced, red.PreUnions = nil, nil
	}
	if o.HU {
		red := hvn.Reduce(prog, true)
		o.Metrics.AddPhase(metrics.PhaseHU, red.Duration)
		o.Metrics.SetCounter("hu_merged_vars", int64(red.MergedVars))
		o.Metrics.SetCounter("hu_dropped_constraints", int64(red.Before-red.After))
		off.hu = red
		prog = red.Reduced
		preUnions = append(preUnions, red.PreUnions...)
		red.Reduced, red.PreUnions = nil, nil
	}
	if o.OVS {
		red := ovs.Reduce(prog)
		o.Metrics.AddPhase(metrics.PhaseOVS, red.Duration)
		off.ovs = red
		prog = red.Reduced
		preUnions = append(preUnions, red.PreUnions...)
		red.Reduced, red.PreUnions = nil, nil
	}
	copts := core.Options{
		BDDPoolNodes: o.BDDPoolNodes,
		DiffProp:     o.DiffProp,
		Workers:      o.Workers,
		Memo:         o.Memo,
		Progress:     o.Progress,
		Metrics:      o.Metrics,
	}
	switch o.Algorithm {
	case Naive:
		copts.Algorithm = core.Naive
	case LCD:
		copts.Algorithm = core.LCD
	case HT:
		copts.Algorithm = core.HT
	case PKH:
		copts.Algorithm = core.PKH
	case PKW:
		copts.Algorithm = core.PKW
	case BLQ:
		// handled below
	default:
		return nil, offlineStats{}, fmt.Errorf("antgrass: unknown algorithm %q", o.Algorithm)
	}
	if o.HCD || len(preUnions) > 0 {
		table := &hcd.Result{}
		if o.HCD {
			table = hcd.Analyze(prog)
			o.Metrics.AddPhase(metrics.PhaseHCD, table.Duration)
		}
		table.PreUnions = append(table.PreUnions, preUnions...)
		copts.WithHCD = true
		copts.HCDTable = table
	}
	if o.Pts == BDD && o.Algorithm != BLQ {
		copts.Pts = pts.NewBDDFactory(uint32(prog.NumVars), o.BDDPoolNodes)
	}
	var (
		inner *core.Result
		err   error
	)
	if o.Algorithm == BLQ {
		copts.Ctx = ctx
		inner, err = blq.Solve(prog, copts)
	} else {
		inner, err = core.SolveContext(ctx, prog, copts)
	}
	if err != nil {
		return nil, offlineStats{}, err
	}
	return inner, off, nil
}

// CGenOptions configures the C front-end (see cgen.Options for the
// field-based mode of the paper's footnote 2). The zero value is the
// sound field-insensitive default.
type CGenOptions = cgen.Options

// CompileC parses a C-subset source file and generates its inclusion
// constraints (the front-end role CIL plays in the paper). Pass the zero
// CGenOptions for the default field-insensitive model.
func CompileC(src string, opts CGenOptions) (*Unit, error) {
	return cgen.CompileWith(src, opts)
}

// GoOptions configures the Go front-end: a module directory and/or an
// explicit package list (standard-library import paths resolve under
// GOROOT). See internal/gogen and docs/GOFRONTEND.md.
type GoOptions = gogen.Options

// CompileGo parses and typechecks Go packages with the standard
// library's go/ast + go/types and generates their inclusion constraints
// under the field-insensitive v1 model specified in docs/GOFRONTEND.md.
// The returned Unit is the same interchange CompileC produces, so every
// solver, offline tier, and client (CallGraph, ComputeModRef, Session)
// runs on real Go code unchanged.
func CompileGo(opts GoOptions) (*Unit, error) {
	return gogen.Compile(opts)
}

// ReadProgram parses the text constraint-file format.
func ReadProgram(r io.Reader) (*Program, error) { return constraint.Read(r) }

// WriteProgram serializes a program in the text constraint-file format.
// It writes nothing and returns an error if a variable's name would not
// read back unchanged (docs/FORMAT.md, "Lines, fields and names").
func WriteProgram(w io.Writer, p *Program) error { return constraint.Write(w, p) }

// NewProgram returns an empty constraint program for manual construction.
func NewProgram() *Program { return constraint.NewProgram() }

// Workload generates the named synthetic benchmark ("emacs",
// "ghostscript", "gimp", "insight", "wine", "linux") at the given scale
// (1.0 = the paper's reduced constraint counts).
func Workload(name string, scale float64) (*Program, error) {
	p, ok := synth.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("antgrass: unknown workload %q (see Workloads)", name)
	}
	return synth.Generate(p.Scale(scale)), nil
}

// WorkloadInfo describes one entry of the synthetic benchmark catalog.
type WorkloadInfo struct {
	// Name is the identifier Workload accepts.
	Name string
	// Description is a one-line human-readable summary.
	Description string
	// KLOC is the benchmark's nominal source size (thousands of lines).
	KLOC int
	// Constraints is the reduced constraint count at scale 1.0.
	Constraints int
}

// Workloads returns the catalog of available synthetic benchmarks in
// Table 2 order, with names and descriptions for tool listings
// (antsolve -list, antbench).
func Workloads() []WorkloadInfo {
	out := make([]WorkloadInfo, len(synth.PaperProfiles))
	for i, p := range synth.PaperProfiles {
		out[i] = WorkloadInfo{
			Name:        p.Name,
			Description: p.Description,
			KLOC:        p.KLOC,
			Constraints: p.Base + p.Simple + p.Complex,
		}
	}
	return out
}

// Reduce runs Offline Variable Substitution on p, returning the reduction
// result (reduced program, pre-unions, statistics).
func Reduce(p *Program) *ovs.Result { return ovs.Reduce(p) }

// UnificationResult is a solved Steensgaard (unification-based) analysis,
// the less-precise near-linear-time baseline the paper's introduction
// positions inclusion-based analysis against.
type UnificationResult = steens.Result

// SolveSteensgaard runs Steensgaard's unification-based analysis on p. Its
// solution is a sound over-approximation of Solve's (use it to reproduce
// the precision comparison motivating the paper).
func SolveSteensgaard(p *Program) (*UnificationResult, error) { return steens.Solve(p) }

// OneLevelFlowResult is a solved One-Level Flow analysis (Das-style), the
// middle point of the precision spectrum the paper's related work maps
// out: Andersen ⊆ OneLevelFlow ⊆ Steensgaard, pointwise.
type OneLevelFlowResult = olf.Result

// SolveOneLevelFlow runs the One-Level Flow analysis on p.
func SolveOneLevelFlow(p *Program) (*OneLevelFlowResult, error) { return olf.Solve(p) }
