// Package oracle is the repository's differential-testing subsystem.
//
// Every solver in this tree — the five explicit-closure algorithms of
// internal/core, the BDD-relational BLQ solver, both points-to
// representations, the parallel engine, and the HCD/LCD cycle
// optimizations — claims to compute exactly the same solution: the unique
// least fixpoint of the inclusion constraints (Table 1 of the paper). The
// cycle-detection techniques in particular are *exact* optimizations: the
// paper's central claim is that they change how fast the fixpoint is
// reached, never which fixpoint is reached.
//
// This package mechanically enforces that claim. It contains:
//
//   - Reference, a slow, obviously-correct fixpoint evaluator that shares
//     no code with the solvers under test (its own worklist, plain
//     map[uint32]bool sets, no cycle collapsing, no union-find);
//   - Check, which solves a program under every registered configuration
//     (see Matrix) and reports the first divergence from the reference,
//     with the offending variable and both points-to sets;
//   - Shrink, a greedy test-case minimizer that deletes constraints and
//     variables while a caller-supplied predicate (typically "Check still
//     diverges") holds, so failures arrive small enough to debug by hand;
//   - fuzz targets (FuzzSolversMatchReference and friends) plus a seed
//     corpus under testdata/corpus/ holding every previously-found
//     divergence as a permanent regression test.
//
// See docs/CORRECTNESS.md for the methodology: how the pieces fit
// together, how to add a new solver configuration to the matrix, and how
// to turn a fuzz failure into a committed regression test.
package oracle

import (
	"fmt"
	"sort"

	"antgrass/internal/constraint"
)

// Reference computes the least fixpoint of p's constraints with a
// deliberately naive evaluator: one plain map per variable and a worklist
// of constraint indices, re-evaluating a constraint whenever a variable it
// reads grows. It shares nothing with internal/core — no bitmaps, no
// union-find, no cycle detection — so a bug in the solvers' shared
// machinery cannot hide here. The returned slice is indexed by variable id.
//
// Load and store constraints subscribe dynamically to the pointees they
// discover: a ⊇ *(b+k) must be re-run not only when pts(b) grows but also
// when pts(v+k) grows for any v already in pts(b).
func Reference(p *constraint.Program) []map[uint32]bool {
	n := p.NumVars
	sets := make([]map[uint32]bool, n)
	for i := range sets {
		sets[i] = map[uint32]bool{}
	}

	// watchers[v] lists the constraint indices to re-evaluate when
	// pts(v) grows; watched de-duplicates dynamic subscriptions.
	watchers := make([][]int, n)
	watched := make([]map[uint32]bool, len(p.Constraints))
	subscribe := func(j int, v uint32) {
		if watched[j] == nil {
			watched[j] = map[uint32]bool{}
		}
		if !watched[j][v] {
			watched[j][v] = true
			watchers[v] = append(watchers[v], j)
		}
	}

	queue := make([]int, 0, len(p.Constraints))
	queued := make([]bool, len(p.Constraints))
	enqueue := func(j int) {
		if !queued[j] {
			queued[j] = true
			queue = append(queue, j)
		}
	}
	grow := func(v uint32) {
		for _, j := range watchers[v] {
			enqueue(j)
		}
	}
	// insert adds x to pts(dst), waking dst's watchers on growth.
	insert := func(dst, x uint32) {
		if !sets[dst][x] {
			sets[dst][x] = true
			grow(dst)
		}
	}
	// flow adds pts(src) to pts(dst). The key snapshot makes the
	// iteration safe when dst == src.
	flow := func(dst, src uint32) {
		for _, x := range snapshot(sets[src]) {
			insert(dst, x)
		}
	}
	// target resolves a dereference of pointee v at offset k, mirroring
	// Table 1: *(b+k) ranges over v+k for v ∈ pts(b) with k < span(v);
	// offset 0 is always valid.
	target := func(v, k uint32) (uint32, bool) {
		if k != 0 && k >= p.SpanOf(v) {
			return 0, false
		}
		return v + k, true
	}

	// Static subscriptions, then evaluate every constraint at least once.
	for j, c := range p.Constraints {
		switch c.Kind {
		case constraint.Copy:
			subscribe(j, c.Src)
		case constraint.Load:
			subscribe(j, c.Src)
		case constraint.Store:
			subscribe(j, c.Dst)
			subscribe(j, c.Src)
		}
		enqueue(j)
	}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		queued[j] = false
		c := p.Constraints[j]
		switch c.Kind {
		case constraint.AddrOf:
			insert(c.Dst, c.Src)
		case constraint.Copy:
			flow(c.Dst, c.Src)
		case constraint.Load: // c.Dst ⊇ *(c.Src+k)
			for _, v := range snapshot(sets[c.Src]) {
				if t, ok := target(v, c.Offset); ok {
					subscribe(j, t)
					flow(c.Dst, t)
				}
			}
		case constraint.Store: // *(c.Dst+k) ⊇ c.Src
			for _, v := range snapshot(sets[c.Dst]) {
				if t, ok := target(v, c.Offset); ok {
					subscribe(j, t)
					flow(t, c.Src)
				}
			}
		}
	}
	return sets
}

// snapshot returns the keys of m as a fresh slice, so callers can mutate m
// while ranging.
func snapshot(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Divergence describes the first disagreement Check found between a solver
// configuration and the reference fixpoint.
type Divergence struct {
	// Config names the diverging configuration (e.g. "pkh+hcd/bdd").
	Config string
	// Var is the first variable (lowest id) whose sets disagree.
	Var uint32
	// Got is the configuration's points-to set for Var, ascending.
	Got []uint32
	// Want is the reference's points-to set for Var, ascending.
	Want []uint32
}

// String renders the divergence in the style of the solver test failures.
func (d *Divergence) String() string {
	return fmt.Sprintf("%s: pts(v%d) = %v, want %v", d.Config, d.Var, d.Got, d.Want)
}

// options collects Check's functional options.
type options struct {
	configs []Config
}

// Option configures Check.
type Option func(*options)

// WithConfigs restricts Check to the given configurations instead of the
// full Matrix. Shrinking predicates use it to re-check only the
// configuration that originally diverged.
func WithConfigs(cfgs ...Config) Option {
	return func(o *options) { o.configs = cfgs }
}

// Check solves p under every registered configuration and compares each
// variable's points-to set against Reference(p). It returns the first
// divergence in deterministic (matrix, then variable) order, or nil when
// every configuration matches. The error return is reserved for
// infrastructure failures — an invalid program or a solver returning an
// error — not for mismatches.
func Check(p *constraint.Program, opts ...Option) (*Divergence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	cfgs := o.configs
	if cfgs == nil {
		cfgs = Matrix()
	}
	want := Reference(p)
	wantSorted := make([][]uint32, p.NumVars)
	for v := range want {
		wantSorted[v] = snapshot(want[v])
		sortU32(wantSorted[v])
	}
	for _, cfg := range cfgs {
		sol, err := cfg.Solve(p)
		if err != nil {
			return nil, fmt.Errorf("oracle: config %s: %w", cfg.Name, err)
		}
		for v := uint32(0); v < uint32(p.NumVars); v++ {
			got := sol.PointsToSlice(v)
			exp := wantSorted[v]
			if !equalU32(got, exp) {
				return &Divergence{
					Config: cfg.Name,
					Var:    v,
					Got:    append([]uint32(nil), got...),
					Want:   append([]uint32(nil), exp...),
				}, nil
			}
		}
	}
	return nil, nil
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortU32(s []uint32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
