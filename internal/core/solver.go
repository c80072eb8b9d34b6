// Package core implements the inclusion-based (Andersen-style) pointer
// analysis solvers studied in the paper: the baseline worklist algorithm
// (Figure 1), Lazy Cycle Detection (Figure 2), Hybrid Cycle Detection
// (Figure 5), Heintze–Tardieu (HT), Pearce–Kelly–Hankin's periodic-sweep
// algorithm (PKH), and Pearce et al.'s earlier dynamic-topological-order
// algorithm (PKW). The BDD-based BLQ solver lives in the sibling package
// blq because it replaces the entire graph machinery.
//
// All solvers share the same substrates — union-find node collapsing,
// sparse-bitmap edge sets, pluggable points-to representations, and the
// offline HCD table — mirroring the paper's methodology ("they use as many
// common components as possible to provide a fair comparison", §5.1).
package core

import (
	"context"
	"fmt"
	"time"

	"antgrass/internal/constraint"
	"antgrass/internal/hcd"
	"antgrass/internal/metrics"
	"antgrass/internal/pts"
	"antgrass/internal/uf"
	"antgrass/internal/worklist"
)

// Algorithm selects a solver.
type Algorithm int

const (
	// Naive is the basic dynamic-transitive-closure worklist algorithm
	// of Figure 1, with no cycle detection.
	Naive Algorithm = iota
	// LCD is Lazy Cycle Detection (Figure 2).
	LCD
	// HT is the Heintze–Tardieu pre-transitive-graph algorithm
	// (field-insensitive variant).
	HT
	// PKH is Pearce, Kelly and Hankin's 2004 algorithm: explicit
	// transitive closure with periodic whole-graph cycle sweeps.
	PKH
	// PKW is Pearce, Kelly and Hankin's original 2003 algorithm, which
	// maintains a dynamic topological order and searches for cycles at
	// every ordering-violating edge insertion. The paper discusses it in
	// §5.3 as an over-aggressive design point.
	PKW
)

// String returns the conventional name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Naive:
		return "naive"
	case LCD:
		return "lcd"
	case HT:
		return "ht"
	case PKH:
		return "pkh"
	case PKW:
		return "pkw"
	}
	return "unknown"
}

// Options configures a solve.
type Options struct {
	// Algorithm selects the solver. The zero value is Naive.
	Algorithm Algorithm
	// WithHCD enables Hybrid Cycle Detection: the offline analysis runs
	// first and its table drives preemptive online collapsing. Naive
	// plus WithHCD is the paper's standalone "HCD" algorithm (Figure 5).
	WithHCD bool
	// HCDTable supplies a precomputed offline HCD result; when nil and
	// WithHCD is set, the offline analysis is run (and timed) here.
	HCDTable *hcd.Result
	// Pts selects the points-to set representation; nil means sparse
	// bitmaps.
	Pts pts.Factory
	// Worklist selects the strategy for worklist-driven solvers; the
	// paper's configuration (and our default) is a divided LRF worklist.
	Worklist worklist.Kind
	// UndividedWorklist disables the current/next split (for the
	// ablation of the divided worklist the paper mentions in §5.1).
	UndividedWorklist bool
	// DiffProp enables difference propagation (suggested by Pearce et
	// al. [22], cited in §5.1): a node remembers what it has already
	// propagated, pushes only the delta along existing edges, and
	// resolves complex constraints against new pointees only. Newly
	// inserted edges still receive the full set. Available for the
	// basic worklist solvers (Naive and LCD); HT and PKH have their
	// own propagation disciplines.
	DiffProp bool
	// BDDPoolNodes sets the initial BDD node-pool capacity for the BLQ
	// solver and BDD-backed points-to sets (0 picks a default). It
	// mirrors the paper's fixed BuDDy pool sizing (§5.2).
	BDDPoolNodes int
	// Workers selects parallel propagation when ≥ 2: the asynchronous
	// owner-computes engine (docs/ALGORITHMS.md §Parallel solving) runs
	// with Workers owner goroutines. It is honored by the Naive and LCD
	// solvers with bitmap points-to sets (the configurations whose
	// propagation discipline is a pure monotone fixpoint over independent
	// nodes); every other configuration runs sequentially regardless. 0
	// and 1 mean sequential. The solution is identical for every value.
	Workers int
	// Memo enables operation-level memoization (internal/memo): the
	// union/diff/offset-deref kernels are answered from a cache keyed on
	// canonical interned set ids when the same operation recurs, with
	// results delivered as copy-on-write shares. It serves the sequential
	// Naive/LCD solvers; every other configuration — HT, PKH, PKW, BLQ,
	// the parallel engine, and non-COW representations (BDD,
	// bitmap-plain) — ignores it. The solution is bit-identical either
	// way; only the work done to reach it changes. Cache effectiveness is
	// exported as the memo_hits / memo_misses / memo_evictions /
	// memo_bytes counters.
	Memo bool
	// Progress, when non-nil, is invoked at token-lap boundaries of the
	// parallel solver and periodically by the sequential worklist
	// solvers, giving callers an observability hook without log
	// scraping. The callback runs on the solving goroutine and must be
	// fast; it must not call back into the solver.
	Progress func(ProgressEvent)
	// Ctx, when non-nil, is checked cooperatively every few thousand
	// worklist pops, by each parallel owner and by the sequential
	// solvers; a canceled context aborts the solve with a wrapped
	// ctx.Err(). Set by SolveContext; plumbed through Options so the blq
	// package's solver can honor it too.
	Ctx context.Context
	// Metrics, when non-nil, receives per-phase timing spans
	// (graph.build, solve.online and its sub-phases, finalize, and
	// hcd.offline when the offline pass runs inside this call),
	// peak-memory samples at round boundaries, and the final Stats
	// counters. A nil registry disables all instrumentation at the cost
	// of a nil check — the hot paths never touch the clock or the
	// registry when it is nil.
	Metrics *metrics.Registry
}

// ProgressEvent is a snapshot of solver progress delivered to
// Options.Progress at a round boundary.
type ProgressEvent struct {
	// Round is the 1-based token-lap number (for the parallel solver) or
	// the number of progress intervals elapsed (for sequential solvers).
	Round int
	// WorklistLen is the number of nodes pending in the sequential
	// worklist (0 for parallel events: the owners' queues are private).
	WorklistLen int
	// NodesCollapsed and Unions are the cumulative Stats.NodesCollapsed
	// and Stats.Propagations counters at the time of the event (the
	// parallel engine folds its owners' propagation counts only at the
	// end of the solve, so its events carry Unions = 0).
	NodesCollapsed int64
	Unions         int64
	// Workers is the number of owner goroutines the parallel engine runs
	// (0 for sequential-solver events).
	Workers int
}

// Stats records the cost counters that §5.3 of the paper analyzes, plus
// timing and analytic memory accounting.
//
// Under parallel solving (Options.Workers ≥ 2) every counter is still an
// exact count of the operations this run performed — owners accumulate
// into private counters that are summed when the engine stops, never into
// shared ints — but the counts themselves are schedule-dependent:
// Propagations, EdgesAdded, CycleChecks, NodesSearched, NodesCollapsed,
// HCDCollapses and MemBytes all depend on the order work is discovered
// (LCD's cycle trigger is heuristic), so treat them as approximate when
// comparing runs with different worker counts. Only the points-to
// solution itself is schedule-independent.
type Stats struct {
	// NodesCollapsed is the number of constraint-graph nodes absorbed
	// into another node by cycle collapsing.
	NodesCollapsed int64
	// NodesSearched is the number of node visits made by depth-first
	// cycle searches (pure overhead of cycle detection).
	NodesSearched int64
	// Propagations counts points-to set union operations across
	// constraint-graph edges.
	Propagations int64
	// EdgesAdded counts constraint edges inserted (initial and derived).
	EdgesAdded int64
	// CycleChecks counts triggered cycle-detection attempts (LCD) or
	// sweeps (PKH).
	CycleChecks int64
	// HCDCollapses counts unions performed by the HCD online rule.
	HCDCollapses int64
	// Rounds counts solver iterations: termination-token laps for the
	// parallel engine, fixpoint rounds for HT and BLQ, whole-graph sweep
	// rounds for PKH. The purely worklist-driven sequential solvers
	// (Naive, LCD, PKW) have no round structure and report 0.
	Rounds int64
	// Workers is the owner count the parallel engine ran with (0 = the
	// solve was sequential).
	Workers int
	// OfflineDuration is the HCD offline analysis time, reported
	// separately as in Table 3.
	OfflineDuration time.Duration
	// SolveDuration is the online analysis wall-clock time.
	SolveDuration time.Duration
	// MemBytes is the analytic memory footprint of the final solver
	// state (points-to sets + graph edges + shared representation
	// overhead), the quantity Tables 4 and 6 track.
	MemBytes int64
}

// Result is a solved points-to analysis.
type Result struct {
	// Prog is the analyzed program.
	Prog *constraint.Program
	// Stats holds the cost counters.
	Stats Stats

	nodes *uf.UF
	sets  []pts.Set // indexed by representative
}

// NewResult assembles a Result; it is exported for the blq package.
func NewResult(p *constraint.Program, nodes *uf.UF, sets []pts.Set, stats Stats) *Result {
	return &Result{Prog: p, Stats: stats, nodes: nodes, sets: sets}
}

// Rep returns the constraint-graph representative of v after collapsing.
func (r *Result) Rep(v uint32) uint32 { return r.nodes.Find(v) }

// PointsTo returns the points-to set of v (possibly nil when empty).
// The returned set must not be modified.
func (r *Result) PointsTo(v uint32) pts.Set {
	return r.sets[r.nodes.Find(v)]
}

// PointsToSlice returns the members of pts(v) in ascending order.
func (r *Result) PointsToSlice(v uint32) []uint32 {
	s := r.PointsTo(v)
	if s == nil {
		return nil
	}
	return s.Slice()
}

// Alias reports whether a and b may alias (their points-to sets intersect).
func (r *Result) Alias(a, b uint32) bool {
	sa, sb := r.PointsTo(a), r.PointsTo(b)
	if sa == nil || sb == nil {
		return false
	}
	return sa.Intersects(sb)
}

// Solve runs the selected algorithm on p with no cancellation.
func Solve(p *constraint.Program, opts Options) (*Result, error) {
	return SolveContext(context.Background(), p, opts)
}

// SolveContext runs the selected algorithm on p under ctx. Cancellation is
// cooperative — checked every few thousand worklist pops by the parallel
// owners and the sequential solvers alike — and returns an error wrapping
// ctx.Err(), never a partial Result.
func SolveContext(ctx context.Context, p *constraint.Program, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Ctx = ctx
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: solve aborted before start: %w", err)
	}
	if opts.Pts == nil {
		opts.Pts = pts.NewBitmapFactory()
	}
	m := opts.Metrics
	var table *hcd.Result
	if opts.WithHCD {
		table = opts.HCDTable
		if table == nil {
			table = hcd.Analyze(p)
			// The offline pass ran inside this call, so its time is
			// part of this solve's wall clock; a precomputed table's
			// is not and stays out of the phase breakdown.
			m.AddPhase(metrics.PhaseHCD, table.Duration)
		}
	}
	buildSpan := m.StartPhase(metrics.PhaseBuild)
	g := newGraphDir(p, opts.Pts, table, opts.Algorithm == HT)
	buildSpan.End()
	g.metrics = m
	if opts.WithHCD && table != nil {
		g.stats.OfflineDuration = table.Duration
	}
	parallel := useParallel(opts)
	start := time.Now()
	var err error
	switch opts.Algorithm {
	case Naive, LCD:
		lazy := opts.Algorithm == LCD
		if parallel {
			err = solveAsync(ctx, g, opts, lazy)
		} else {
			err = solveBasic(ctx, g, opts, lazy)
		}
	case HT:
		err = solveHT(ctx, g, opts)
	case PKH:
		err = solvePKH(ctx, g, opts)
	case PKW:
		err = solvePKW(ctx, g, opts)
	default:
		err = fmt.Errorf("core: unknown algorithm %d", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	online := time.Since(start)
	if parallel {
		g.stats.Workers = opts.Workers
	}
	g.recordOnlinePhases(online)
	finalizeSpan := m.StartPhase(metrics.PhaseFinalize)
	g.stats.SolveDuration = online
	// Hash-cons the solution: collapse-heavy solves leave many
	// content-equal sets behind, and folding them onto canonical backings
	// leaves one backing per distinct set (reflected in MemBytes below)
	// and makes later Result.PointsTo(...).Equal comparisons
	// pointer-fast. The backings stay in the solver's element pools, and
	// a share of one pins its pool chunk and, through the free list, the
	// rest of the pool; a snapshot that outlives the solver therefore
	// copies them out (pts.Freeze; see antgrass.Snapshot).
	for i := 0; i < g.n; i++ {
		if g.sets[i] != nil {
			pts.Dedup(g.sets[i])
		}
	}
	g.stats.MemBytes = g.memBytes()
	res := NewResult(p, g.nodes, g.sets, *g.stats)
	m.SampleMem()
	g.stats.Export(m)
	g.exportAllocStats(m, opts.Pts)
	g.exportMemoStats(m, opts)
	finalizeSpan.End()
	return res, nil
}

// exportMemoStats writes the operation-memoization counters the
// sequential solver folded into g.memoStats at exit. Counters appear only
// when the memo was requested, so ±memo reports diff cleanly.
func (g *graph) exportMemoStats(m *metrics.Registry, opts Options) {
	if m == nil || !opts.Memo {
		return
	}
	m.SetCounter("memo_hits", g.memoStats.Hits)
	m.SetCounter("memo_misses", g.memoStats.Misses)
	m.SetCounter("memo_evictions", g.memoStats.Evictions)
	m.SetCounter("memo_bytes", g.memoStats.Bytes)
}

// exportAllocStats writes the memory-engine counters (element pools,
// copy-on-write traffic, dedup hit rate) into the metrics registry, from
// which they flow into antbench -json reports.
func (g *graph) exportAllocStats(m *metrics.Registry, factory pts.Factory) {
	if m == nil {
		return
	}
	if src, ok := factory.(pts.StatsSource); ok {
		as := src.AllocStats()
		m.SetCounter("pool_element_gets", as.PoolGets)
		m.SetCounter("pool_element_recycled", as.PoolRecycled)
		m.SetCounter("pool_element_puts", as.PoolPuts)
		m.SetCounter("pool_chunks", as.PoolChunks)
		m.SetCounter("cow_shares", as.CowShares)
		m.SetCounter("cow_clones", as.CowClones)
		m.SetCounter("dedup_lookups", as.DedupLookups)
		m.SetCounter("dedup_hits", as.DedupHits)
	}
	eps := g.edgePool.Stats()
	m.SetCounter("edge_pool_element_gets", eps.Gets)
	m.SetCounter("edge_pool_element_recycled", eps.Recycled)
}

// recordOnlinePhases splits the online solve time into disjoint
// sub-phases: cycle detection and the HCD online rule are accumulated by
// the graph as they run; the remainder is propagation proper. The
// sub-phases partition the online time exactly, so a report's phase total
// tracks the wall clock.
func (g *graph) recordOnlinePhases(online time.Duration) {
	m := g.metrics
	if m == nil {
		return
	}
	cyc := time.Duration(g.cycleNS)
	hcdOn := time.Duration(g.hcdNS)
	m.AddPhase(PhaseCycleDetect, cyc)
	m.AddPhase(PhaseHCDOnline, hcdOn)
	m.AddPhase(PhasePropagate, online-cyc-hcdOn)
}

// Sub-phases of the online solve recorded in Options.Metrics. Together
// with the shared metrics.Phase* names they partition a solve's wall
// clock: wall ≈ graph.build + hcd.offline (when run in-call) +
// solve.cycledetect + solve.hcd.online + solve.propagate + finalize.
const (
	// PhaseCycleDetect is time inside depth-first cycle searches and
	// PKH's whole-graph sweeps.
	PhaseCycleDetect = "solve.cycledetect"
	// PhaseHCDOnline is time inside the HCD online collapsing rule.
	PhaseHCDOnline = "solve.hcd.online"
	// PhasePropagate is propagation: everything in the online solve that
	// is not cycle detection or the HCD rule.
	PhasePropagate = "solve.propagate"
)

// Export writes the Stats counters into m under stable snake_case names,
// making every §5.3 cost counter part of the machine-readable report.
func (s *Stats) Export(m *metrics.Registry) {
	if m == nil {
		return
	}
	m.SetCounter("nodes_collapsed", s.NodesCollapsed)
	m.SetCounter("nodes_searched", s.NodesSearched)
	m.SetCounter("propagations", s.Propagations)
	m.SetCounter("edges_added", s.EdgesAdded)
	m.SetCounter("cycle_checks", s.CycleChecks)
	m.SetCounter("hcd_collapses", s.HCDCollapses)
	m.SetCounter("rounds", s.Rounds)
	m.SetCounter("workers", int64(s.Workers))
	m.SetCounter("mem_bytes", s.MemBytes)
}

// useParallel reports whether this configuration runs the parallel
// engine: ≥ 2 workers, a Naive/LCD algorithm and bitmap-backed points-to
// sets (the owners need lock-free read-only set operations that the BDD
// representation, with its shared mutable node table, cannot provide).
func useParallel(opts Options) bool {
	if opts.Algorithm != Naive && opts.Algorithm != LCD {
		return false
	}
	name := opts.Pts.Name()
	return opts.Workers >= 2 && (name == "bitmap" || name == "bitmap-plain")
}

// progressInterval is how many worklist pops a sequential solver processes
// between progress reports. Cancellation is checked on every pop: one pop's
// step 1 can take milliseconds on a dense set, so a stride of pops would
// let a deadline overrun by seconds.
const progressInterval = 4096

// canceled wraps a context error with solve provenance.
func canceled(err error, where string) error {
	return fmt.Errorf("core: solve canceled during %s: %w", where, err)
}

// newWorklist builds the configured worklist sized for n nodes.
func newWorklist(opts Options, n int) worklist.Worklist {
	k := opts.Worklist
	if opts.UndividedWorklist {
		return worklist.New(k, n)
	}
	return worklist.NewDivided(k, n)
}
