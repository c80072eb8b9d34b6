package core

import (
	"context"
	"time"

	"antgrass/internal/memo"
	"antgrass/internal/pts"
	"antgrass/internal/worklist"
)

// basicState is the persistent state of the basic dynamic-transitive-closure
// worklist solver (Figure 1) and its Lazy Cycle Detection variant
// (Figure 2). It was extracted from the original one-shot solve function so
// the fixpoint can be *resumed*: the incremental Live solver keeps a
// basicState alive across constraint deltas and re-enters run with a
// freshly seeded worklist, continuing from the current solution instead of
// recomputing it (see live.go).
type basicState struct {
	g    *graph
	opts Options
	lazy bool
	diff bool

	// fired records edges that already triggered a (possibly failed)
	// cycle search; LCD never triggers on the same edge twice. It
	// persists across resumes — re-searching an edge that failed before
	// would be pure overhead, and skipping it never changes the solution.
	fired map[uint64]struct{}

	// memo, when non-nil, answers repeated unions, diffs and offset-deref
	// expansions from a cache keyed on canonical interned set ids
	// (Options.Memo). It persists across resumes like fired: the
	// incremental solver's repeated deltas are exactly the redundancy it
	// removes.
	memo *memo.Table

	derefScratch []uint32
	derefExpand  []uint32 // unmemoized offset-expansion fallback buffer
	pops         int
	intervals    int
}

// newBasicState prepares the solver state for g without running anything.
func newBasicState(g *graph, opts Options, lazy bool) *basicState {
	st := &basicState{g: g, opts: opts, lazy: lazy, diff: opts.DiffProp}
	if st.diff {
		g.propagated = make([]pts.Set, g.n)
	}
	if lazy {
		st.fired = make(map[uint64]struct{})
	}
	if opts.Memo {
		st.memo = memo.NewTable()
	}
	return st
}

// exportMemo publishes the memo table's cumulative counters into the
// graph for metrics export. Snapshot semantics (not accumulate): the
// incremental solver calls this after every resume.
func (st *basicState) exportMemo() {
	if st.memo != nil {
		st.g.memoStats = st.memo.Stats()
	}
}

// unionInto performs dst |= src through the memo table when one is
// active, falling back to the plain engine union otherwise (including
// for representations the memo cannot key).
func (st *basicState) unionInto(dst, src pts.Set) bool {
	if st.memo != nil {
		if changed, ok := st.memo.Union(dst, src); ok {
			return changed
		}
	}
	return dst.UnionWith(src)
}

// resolveMemo is the memoized form of step 1: it realizes the complex
// constraints constraint-major instead of element-major, so each distinct
// (work, offset) dereference expansion is computed — or memo-hit — once
// and shared by every constraint with that offset. The reordering is
// safe: step 1 performs no unites, so exactly the same edges are realized
// as by the element-major loop, just discovered in a different order.
// st.derefScratch must already hold work's element snapshot.
func (st *basicState) resolveMemo(work pts.Set, loads, stores []deref, onNewEdge func(src, dst uint32)) {
	g := st.g
	for _, ld := range loads {
		for _, t := range st.derefTargets(work, ld.Off) {
			src := g.find(t)
			dst := g.find(ld.Other)
			if g.addEdge(src, dst) {
				onNewEdge(src, dst)
			}
		}
	}
	for _, stc := range stores {
		for _, t := range st.derefTargets(work, stc.Off) {
			src := g.find(stc.Other)
			dst := g.find(t)
			if g.addEdge(src, dst) {
				onNewEdge(src, dst)
			}
		}
	}
}

// derefTargets returns the valid dereference targets of work at off.
// Offset 0 is the identity expansion — the element snapshot itself;
// nonzero offsets go through the memo. The result is read-only and valid
// until the next derefTargets call with a nonzero offset.
func (st *basicState) derefTargets(work pts.Set, off uint32) []uint32 {
	if off == 0 {
		return st.derefScratch
	}
	if ts, ok := st.memo.OffsetDeref(work, off, st.derefScratch, st.g.validTarget); ok {
		return ts
	}
	st.derefExpand = st.derefExpand[:0]
	for _, v := range st.derefScratch {
		if t, valid := st.g.validTarget(v, off); valid {
			st.derefExpand = append(st.derefExpand, t)
		}
	}
	return st.derefExpand
}

// seedAll pushes every representative with a non-empty points-to set — the
// from-scratch seeding of Figure 1.
func (st *basicState) seedAll(w worklist.Worklist) {
	g := st.g
	for v := uint32(0); v < uint32(g.n); v++ {
		r := g.find(v)
		if g.sets[r] != nil && !g.sets[r].Empty() {
			w.Push(r)
		}
	}
}

// solveBasic implements the basic dynamic-transitive-closure worklist
// algorithm of Figure 1 and, when lazy is true, Lazy Cycle Detection
// (Figure 2): before propagating across an edge n → z, if pts(z) = pts(n)
// and the edge has not triggered a search before, a depth-first cycle
// search is run rooted at z and any cycle found is collapsed.
//
// With Options.WithHCD the HCD online rule of Figure 5 runs first whenever
// a node is taken off the worklist; Naive+HCD is the paper's standalone
// "HCD" algorithm and LCD+HCD its headline combination.
//
// With Options.DiffProp each node tracks the part of its set that has
// already been pushed: only new pointees feed complex constraints and only
// deltas travel along existing edges; a freshly inserted edge receives the
// full set at insertion time (Pearce et al.'s difference propagation).
func solveBasic(ctx context.Context, g *graph, opts Options, lazy bool) error {
	st := newBasicState(g, opts, lazy)
	w := newWorklist(opts, g.n)
	st.seedAll(w)
	err := st.run(ctx, w)
	st.exportMemo()
	if st.memo != nil {
		st.memo.Release() // one-shot solve: drop the cached COW shares
	}
	return err
}

// run drains w to a fixpoint. It may be called repeatedly on the same
// state with differently seeded worklists; each call leaves the solution
// at the least fixpoint of the constraints represented in the graph.
func (st *basicState) run(ctx context.Context, w worklist.Worklist) error {
	g, opts, lazy, diff := st.g, st.opts, st.lazy, st.diff
	done := ctx.Done() // nil for a context that is never canceled
	for {
		x, ok := w.Pop()
		if !ok {
			break
		}
		select {
		case <-done:
			return canceled(ctx.Err(), "worklist solving")
		default:
		}
		if st.pops++; st.pops%progressInterval == 0 {
			if st.pops%(progressInterval*16) == 0 {
				// ReadMemStats stops the world; sample at a coarser
				// stride than the progress reports.
				g.metrics.SampleMem()
			}
			if opts.Progress != nil {
				st.intervals++
				opts.Progress(ProgressEvent{
					Round:          st.intervals,
					WorklistLen:    w.Len(),
					NodesCollapsed: g.stats.NodesCollapsed,
					Unions:         g.stats.Propagations,
				})
			}
		}
		n := g.find(x)
		if x != n {
			// x was absorbed since it was enqueued; its
			// representative was (or will be) enqueued by unite's
			// caller.
			w.Push(n)
			continue
		}
		n = g.applyHCD(n, func(rep uint32) { w.Push(rep) })
		set := g.sets[n]
		if set == nil || set.Empty() {
			continue
		}
		// Under difference propagation, work only on the unseen part.
		work := set
		if diff {
			old := g.propagated[n]
			if old != nil && old.Equal(set) {
				continue // nothing new since the last visit
			}
			if st.memo != nil && old != nil {
				if d, ok := st.memo.Diff(set, old); ok {
					work = d
				} else {
					work = set.SubtractCopy(old)
				}
			} else {
				work = set.SubtractCopy(old)
			}
		}
		// Step 1 (Figure 1): realize complex constraints as new edges.
		if len(g.loads[n]) > 0 || len(g.stores[n]) > 0 {
			loads, stores := g.loads[n], g.stores[n]
			onNewEdge := func(src, dst uint32) {
				if diff {
					// The new edge transfers the full
					// current set right away; later growth
					// arrives as deltas.
					if g.sets[src] != nil {
						g.stats.Propagations++
						if st.unionInto(g.ptsOf(dst), g.sets[src]) {
							w.Push(dst)
						}
					}
				} else {
					w.Push(src)
				}
			}
			// Word-level snapshot instead of a per-bit closure walk; it
			// also insulates the iteration from the set unions onNewEdge
			// performs under difference propagation.
			st.derefScratch = work.AppendTo(st.derefScratch[:0])
			if st.memo != nil {
				st.resolveMemo(work, loads, stores, onNewEdge)
			} else {
				for _, v := range st.derefScratch {
					for _, ld := range loads {
						t, valid := g.validTarget(v, ld.Off)
						if !valid {
							continue
						}
						src := g.find(t)
						dst := g.find(ld.Other)
						if g.addEdge(src, dst) {
							onNewEdge(src, dst)
						}
					}
					for _, stc := range stores {
						t, valid := g.validTarget(v, stc.Off)
						if !valid {
							continue
						}
						src := g.find(stc.Other)
						dst := g.find(t)
						if g.addEdge(src, dst) {
							onNewEdge(src, dst)
						}
					}
				}
			}
		}
		// Step 2: propagate along outgoing copy edges, with the LCD
		// trigger guarding each propagation.
		collapsed := false
		for {
			restart := false
			for _, z := range g.succsSnapshot(n) {
				if z == n {
					continue
				}
				if lazy && g.sets[z] != nil && g.sets[z].Equal(set) {
					key := uint64(n)<<32 | uint64(z)
					if _, seen := st.fired[key]; !seen {
						st.fired[key] = struct{}{}
						g.stats.CycleChecks++
						if g.detectAndCollapse(z, w.Push) {
							n = g.find(n)
							if diff && work != set {
								pts.Release(work) // dead delta buffer
							}
							set = g.ptsOf(n)
							work = set
							w.Push(n)
							restart = true
							collapsed = true
							break
						}
					}
				}
				g.stats.Propagations++
				if st.unionInto(g.ptsOf(z), work) {
					w.Push(z)
				}
			}
			if !restart {
				break
			}
		}
		if diff && !collapsed {
			// Remember what has now been fully pushed: exactly
			// old ∪ work. pts(n) itself may already be larger
			// (an edge inserted during step 1 can target n), and
			// those later arrivals re-enqueued n, so they must
			// stay out of the propagated set until their own
			// visit. After a collapse unite() already reset the
			// merged node's propagated set and re-enqueued it.
			if old := g.propagated[n]; old != nil {
				if st.memo != nil {
					// A memoized work may share a cached backing, which a
					// write would clone; growing old costs nothing extra.
					old.UnionWith(work)
					pts.Release(work)
					work = old
				} else {
					work.UnionWith(old)
					pts.Release(old)
				}
			}
			g.propagated[n] = work
		}
	}
	return nil
}

// detectAndCollapse runs a depth-first SCC search (Nuutila's variant, as in
// §5.1) rooted at root and collapses every non-trivial component found.
// Each merged representative is handed to push. Reports whether anything
// was collapsed.
func (g *graph) detectAndCollapse(root uint32, push func(uint32)) bool {
	return g.detectAndCollapseMulti([]uint32{root}, push)
}

// detectAndCollapseMulti is detectAndCollapse over many roots in one
// Nuutila pass: each node is visited at most once no matter how many
// roots share reachable structure. The async arbiter uses this to keep a
// pause's cycle work bounded by one graph traversal instead of
// (candidates × reachable subgraph).
func (g *graph) detectAndCollapseMulti(roots []uint32, push func(uint32)) bool {
	if g.metrics != nil {
		t0 := time.Now()
		defer func() { g.cycleNS += time.Since(t0).Nanoseconds() }()
	}
	res := g.search.Search(g.n, roots, g.succsOf)
	g.stats.NodesSearched += int64(res.Visited)
	collapsed := false
	for _, comp := range res.Comps {
		if len(comp) < 2 {
			continue
		}
		rep := comp[0]
		for _, m := range comp[1:] {
			rep = g.unite(rep, m)
		}
		push(rep)
		collapsed = true
	}
	return collapsed
}
