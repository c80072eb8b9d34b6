package core

import (
	"time"

	"antgrass/internal/bitmap"
	"antgrass/internal/constraint"
	"antgrass/internal/hcd"
	"antgrass/internal/memo"
	"antgrass/internal/metrics"
	"antgrass/internal/pts"
	"antgrass/internal/scc"
	"antgrass/internal/uf"
)

// deref records one complex constraint hanging off a dereferenced variable:
// for loads, Other = the destination a of a ⊇ *(n+Off); for stores, Other =
// the source b of *(n+Off) ⊇ b.
type deref struct {
	Other uint32
	Off   uint32
}

// graph is the online constraint graph shared by the explicit-closure
// solvers. Nodes are variables; collapsed nodes are tracked by a union-find
// and all per-node state lives at the representative.
//
// Points-to set elements are always original variable ids (memory locations
// are never merged by collapsing); only graph nodes are merged. Offset
// arithmetic for indirect calls is performed on original ids: *(p+k)
// resolves to v+k for v ∈ pts(p), valid only when k < span(v).
type graph struct {
	p     *constraint.Program
	n     int
	nodes *uf.UF

	sets   []pts.Set        // points-to set, valid at rep
	succs  []*bitmap.Bitmap // outgoing copy edges, valid at rep; members may be stale reps
	loads  [][]deref        // loads keyed by dereferenced var, valid at rep
	stores [][]deref        // stores keyed by dereferenced var, valid at rep

	// hcdTargets lists, per rep, the collapse targets b of the offline
	// tuples (a, b) whose a was merged into this rep.
	hcdTargets [][]uint32

	// propagated holds, per rep, the part of the points-to set already
	// pushed to successors and resolved against complex constraints.
	// Allocated only under difference propagation; cleared for a rep
	// whenever a collapse changes its edge set or constraint lists.
	propagated []pts.Set

	// resolved holds, per rep, the part of the points-to set already
	// resolved against the node's load/store constraints. Allocated only
	// by the parallel solver, which tracks resolution separately from
	// propagation: gaining an outgoing edge forces a node to re-push its
	// set (cheap — the deltas compute to empty) but must not force it to
	// re-resolve every pointee against every complex constraint. Cleared
	// together with propagated on collapse.
	resolved []pts.Set

	// hcdResolved holds, per rep, the part of the points-to set already
	// run through the HCD online rule. Allocated only by the parallel solver:
	// its owners cannot fire the rule themselves (uniting is arbiter-only),
	// so they park a node whose set has un-ruled pointees until the next
	// pause fires the rule, and the pause stamps this memo so the node
	// proceeds afterwards. Cleared together with propagated on collapse.
	hcdResolved []pts.Set

	span    []uint32 // expanded span table (length n, all ≥ 1)
	factory pts.Factory
	stats   *Stats

	// metrics is the observability registry (nil = disabled). The
	// accumulators below attribute online time to sub-phases; they are
	// plain ints because they are only touched from single-threaded
	// solver code (the sequential loops and the parallel engine's
	// arbiter, which runs every collapse), and only when metrics is
	// non-nil — the disabled path never reads the clock.
	metrics *metrics.Registry
	cycleNS int64 // time inside cycle searches / sweeps
	hcdNS   int64 // time inside the HCD online rule

	// memoStats holds the operation-memoization counters of the
	// sequential Naive/LCD solver under Options.Memo, folded in from its
	// memo table at exit.
	memoStats memo.Stats

	// reversed records the orientation of the adjacency: false means
	// succs[x] holds copy-successors (edge x → w propagates pts(x) into
	// pts(w)); true means succs[x] holds copy-PREDECESSORS, the
	// orientation the Heintze–Tardieu solver queries. SCC structure is
	// invariant under reversal, so collapsing works either way.
	reversed bool

	// onUnite, when non-nil, is called after every successful collapse
	// with the surviving and absorbed representatives (HT uses it to
	// invalidate its per-round points-to cache).
	onUnite func(rep, lost uint32)

	// edgePool recycles the elements of the successor bitmaps: cycle
	// collapsing unions one edge set into another and drops the loser,
	// and succsOf rewrites stale sets in place — both return their dead
	// elements here. Touched only by single-threaded solver code (the
	// parallel engine's owners insert edges through their own pools, see
	// addEdgeIn).
	edgePool *bitmap.Pool

	// search is the cycle searches' Nuutila state (LCD, PKW, the PKH
	// sweep and the parallel arbiter's pauses). It persists across
	// searches and grows on its own to g.n, so a search costs the nodes
	// it visits rather than the size of the graph.
	search scc.Searcher

	// scratch for succsOf / applyHCD
	succScratch []uint32
	hcdScratch  []uint32
}

// newGraph builds the initial constraint graph: base constraints populate
// points-to sets, simple constraints become edges, complex constraints are
// indexed by their dereferenced variable. If an HCD table is supplied, its
// offline pre-unions are applied and its pairs attached.
func newGraph(p *constraint.Program, factory pts.Factory, table *hcd.Result) *graph {
	return newGraphDir(p, factory, table, false)
}

// newGraphDir is newGraph with an explicit adjacency orientation.
func newGraphDir(p *constraint.Program, factory pts.Factory, table *hcd.Result, reversed bool) *graph {
	n := p.NumVars
	g := &graph{
		p:        p,
		n:        n,
		nodes:    uf.New(n),
		sets:     make([]pts.Set, n),
		succs:    make([]*bitmap.Bitmap, n),
		loads:    make([][]deref, n),
		stores:   make([][]deref, n),
		span:     make([]uint32, n),
		factory:  factory,
		stats:    &Stats{},
		reversed: reversed,
		edgePool: bitmap.NewPool(),
	}
	for i := range g.span {
		g.span[i] = p.SpanOf(uint32(i))
	}
	if table != nil {
		g.hcdTargets = make([][]uint32, n)
		for _, pu := range table.PreUnions {
			g.unite(pu[0], pu[1])
		}
		// Pairs is sorted by Deref, so tuples attach — and later fire —
		// in one deterministic order, run after run.
		for _, pr := range table.Pairs {
			ra := g.find(pr.Deref)
			g.hcdTargets[ra] = append(g.hcdTargets[ra], pr.Target)
		}
	}
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.AddrOf:
			g.ptsOf(g.find(c.Dst)).Insert(c.Src)
		case constraint.Copy:
			g.addCopyEdge(c.Src, c.Dst)
		case constraint.Load:
			r := g.find(c.Src)
			g.loads[r] = append(g.loads[r], deref{Other: c.Dst, Off: c.Offset})
		case constraint.Store:
			r := g.find(c.Dst)
			g.stores[r] = append(g.stores[r], deref{Other: c.Src, Off: c.Offset})
		}
	}
	return g
}

func (g *graph) find(v uint32) uint32 { return g.nodes.Find(v) }

// grow extends the graph's variable universe to p.NumVars (which must be
// the graph's own program, mutated by appending variables). New variables
// start as singleton representatives with empty sets, no edges and no
// constraints; existing state is untouched. Used by the incremental
// solver when a constraint delta introduces fresh variables.
func (g *graph) grow(p *constraint.Program) {
	n := p.NumVars
	if n <= g.n {
		return
	}
	old := g.n
	g.n = n
	g.nodes.Grow(n)
	g.sets = append(g.sets, make([]pts.Set, n-old)...)
	g.succs = append(g.succs, make([]*bitmap.Bitmap, n-old)...)
	g.loads = append(g.loads, make([][]deref, n-old)...)
	g.stores = append(g.stores, make([][]deref, n-old)...)
	g.span = append(g.span, make([]uint32, n-old)...)
	for i := old; i < n; i++ {
		g.span[i] = p.SpanOf(uint32(i))
	}
	if g.hcdTargets != nil {
		g.hcdTargets = append(g.hcdTargets, make([][]uint32, n-old)...)
	}
	if g.propagated != nil {
		g.propagated = append(g.propagated, make([]pts.Set, n-old)...)
	}
	if g.resolved != nil {
		g.resolved = append(g.resolved, make([]pts.Set, n-old)...)
	}
	if g.hcdResolved != nil {
		g.hcdResolved = append(g.hcdResolved, make([]pts.Set, n-old)...)
	}
}

// clearPropagated forgets what rep r has already pushed and resolved, so
// the next visit re-propagates its full set and re-resolves every pointee
// against its (possibly just-extended) constraint lists. The incremental
// solver calls it for every node a delta touches; without difference
// propagation the arrays are nil and this is a no-op.
func (g *graph) clearPropagated(r uint32) {
	if g.propagated != nil {
		pts.Release(g.propagated[r])
		g.propagated[r] = nil
	}
	if g.resolved != nil {
		pts.Release(g.resolved[r])
		g.resolved[r] = nil
	}
}

// ptsOf returns the points-to set of rep r, allocating it on first use.
func (g *graph) ptsOf(r uint32) pts.Set {
	if g.sets[r] == nil {
		g.sets[r] = g.factory.New()
	}
	return g.sets[r]
}

// succsBM returns the successor bitmap of rep r, allocating on first use.
func (g *graph) succsBM(r uint32) *bitmap.Bitmap {
	if g.succs[r] == nil {
		g.succs[r] = bitmap.NewIn(g.edgePool)
	}
	return g.succs[r]
}

// addCopyEdge inserts the semantic copy edge src → dst (pts(src) flows into
// pts(dst)) regardless of the adjacency orientation. Arguments may be
// non-representatives.
func (g *graph) addCopyEdge(src, dst uint32) bool {
	rs, rd := g.find(src), g.find(dst)
	if g.reversed {
		return g.addEdge(rd, rs)
	}
	return g.addEdge(rs, rd)
}

// addEdge inserts the adjacency edge src → dst (both must be reps). Self-edges
// are dropped. Reports whether the edge is new.
func (g *graph) addEdge(src, dst uint32) bool {
	if src == dst {
		return false
	}
	if g.succsBM(src).Set(dst) {
		g.stats.EdgesAdded++
		return true
	}
	return false
}

// addEdgeIn is addEdge for a parallel owner: src's successor bitmap is
// allocated from — or re-pointed at — the calling owner's pool instead of
// the shared edgePool (which is unsynchronized and single-threaded by
// contract), and the EdgesAdded counter is left to the caller (owners
// count privately; the engine sums at exit). src and dst must be distinct
// representatives owned by the calling owner.
func (g *graph) addEdgeIn(src, dst uint32, pool *bitmap.Pool) bool {
	bm := g.succs[src]
	if bm == nil {
		bm = bitmap.NewIn(pool)
		g.succs[src] = bm
	} else {
		bm.UsePool(pool)
	}
	return bm.Set(dst)
}

// succsOf returns the current successor representatives of rep r, repairing
// stale entries (successors that have since been collapsed) in place. The
// returned slice is valid until the next succsOf call.
func (g *graph) succsOf(r uint32) []uint32 {
	bm := g.succs[r]
	if bm == nil {
		return nil
	}
	out := bm.AppendTo(g.succScratch[:0])
	stale := false
	for i, w := range out {
		rw := g.find(w)
		if rw != w || rw == r {
			stale = true // collapsed successor or self-edge: repair below
		}
		out[i] = rw
	}
	if stale {
		bm.ClearAll()
		fresh := out[:0]
		for _, w := range out {
			if w != r && bm.Set(w) {
				fresh = append(fresh, w)
			}
		}
		out = fresh
	}
	g.succScratch = out
	return out
}

// succsSnapshot returns an independent copy of succsOf(r), safe across
// graph mutations.
func (g *graph) succsSnapshot(r uint32) []uint32 {
	return append([]uint32(nil), g.succsOf(r)...)
}

// unite collapses the nodes of a and b (any ids) into one representative,
// merging points-to sets, edges, complex-constraint lists and HCD targets.
// It returns the representative. NodesCollapsed counts absorbed nodes.
func (g *graph) unite(a, b uint32) uint32 {
	rep, lost := g.nodes.Union(a, b)
	if rep == lost {
		return rep
	}
	g.stats.NodesCollapsed++
	if g.onUnite != nil {
		g.onUnite(rep, lost)
	}
	if s := g.sets[lost]; s != nil {
		g.ptsOf(rep).UnionWith(s)
		pts.Release(s) // recycle (or un-share) the absorbed set's backing
		g.sets[lost] = nil
	}
	if bm := g.succs[lost]; bm != nil {
		g.succsBM(rep).IorWith(bm)
		bm.ClearAll() // return the absorbed edge set's elements to the pool
		g.succs[lost] = nil
	}
	if l := g.loads[lost]; len(l) > 0 {
		g.loads[rep] = append(g.loads[rep], l...)
		g.loads[lost] = nil
	}
	if s := g.stores[lost]; len(s) > 0 {
		g.stores[rep] = append(g.stores[rep], s...)
		g.stores[lost] = nil
	}
	if g.hcdTargets != nil {
		if h := g.hcdTargets[lost]; len(h) > 0 {
			g.hcdTargets[rep] = append(g.hcdTargets[rep], h...)
			g.hcdTargets[lost] = nil
		}
	}
	if g.propagated != nil {
		// The merged node has new edges and constraints: everything
		// must be (re)propagated once.
		pts.Release(g.propagated[rep])
		pts.Release(g.propagated[lost])
		g.propagated[rep] = nil
		g.propagated[lost] = nil
	}
	if g.resolved != nil {
		// Likewise its constraint lists changed: every pointee must be
		// re-resolved against the combined loads and stores.
		pts.Release(g.resolved[rep])
		pts.Release(g.resolved[lost])
		g.resolved[rep] = nil
		g.resolved[lost] = nil
	}
	if g.hcdResolved != nil {
		// The merge may have brought in new HCD tuples (hcdTargets above),
		// so the combined set must re-run the online rule from scratch.
		pts.Release(g.hcdResolved[rep])
		pts.Release(g.hcdResolved[lost])
		g.hcdResolved[rep] = nil
		g.hcdResolved[lost] = nil
	}
	return rep
}

// validTarget reports whether dereferencing v at offset off is meaningful,
// and if so returns the target variable id (v+off).
func (g *graph) validTarget(v, off uint32) (uint32, bool) {
	if off == 0 {
		return v, true
	}
	if off < g.span[v] {
		return v + off, true
	}
	return 0, false
}

// applyHCD runs the HCD online rule for rep n (Figure 5): for every tuple
// (n, b), union each member of pts(n) with b. Every union is reported to
// onUnion so the caller can requeue the merged node. Returns the (possibly
// new) representative of n.
func (g *graph) applyHCD(n uint32, onUnion func(rep uint32)) uint32 {
	if g.hcdTargets == nil || len(g.hcdTargets[n]) == 0 {
		return n
	}
	if g.metrics != nil {
		t0 := time.Now()
		defer func() { g.hcdNS += time.Since(t0).Nanoseconds() }()
	}
	targets := g.hcdTargets[n]
	g.hcdTargets[n] = nil // each tuple fires at most once per merge-group
	for _, b := range targets {
		rb := g.find(b)
		set := g.sets[g.find(n)]
		merged := false
		if set != nil {
			// Snapshot through the scratch buffer: unite below mutates
			// sets, so we cannot iterate the live set.
			g.hcdScratch = set.AppendTo(g.hcdScratch[:0])
			for _, v := range g.hcdScratch {
				rv := g.find(v)
				rb = g.find(rb)
				if rv == rb {
					continue
				}
				rb = g.unite(rv, rb)
				g.stats.HCDCollapses++
				merged = true
			}
		}
		if merged {
			onUnion(g.find(rb))
		}
		// Keep the tuple armed: pts(n) may grow later and new members
		// must also be collapsed into b.
		rn := g.find(n)
		g.hcdTargets[rn] = append(g.hcdTargets[rn], b)
	}
	return g.find(n)
}

// memBytes computes the analytic memory footprint of the final state.
func (g *graph) memBytes() int64 {
	var total int64
	for i := 0; i < g.n; i++ {
		if g.sets[i] != nil {
			total += int64(g.sets[i].MemBytes())
		}
		if g.succs[i] != nil {
			total += int64(g.succs[i].MemBytes())
		}
		total += int64(len(g.loads[i])+len(g.stores[i])) * 8
	}
	total += int64(g.nodes.MemBytes())
	total += int64(g.factory.OverheadBytes())
	total += int64(g.edgePool.MemBytes())
	return total
}
