// Package blq implements the BDD-based inclusion solver of Berndl, Lhoták,
// Qian, Hendren and Umanee [4], in the field-insensitive C variant the
// paper evaluates (handling indirect function calls, unlike the original
// Java formulation, §2).
//
// The whole points-to relation lives in one BDD P ⊆ d1×d2 (pointer,
// pointee) and the copy-edge relation in another, E ⊆ d1×d3 (source,
// destination), over three interleaved finite domains. Propagation is a
// relational product with the incrementalization of Berndl et al.: only
// tuples discovered in the previous step are joined against E. Load and
// store constraints become relational rules producing new edges; indirect
// call constraints (non-zero offsets) are resolved by enumerating the
// small function points-to sets, since a BDD domain cannot be shifted by a
// constant cheaply (documented substitution, see DESIGN.md).
//
// With Hybrid Cycle Detection enabled, the offline table drives collapsing:
// nodes are merged in a union-find and their rows/columns renamed inside
// the relation BDDs — the "overhead involved in collapsing those cycles"
// that §5.2 notes keeps HCD's benefit for BLQ modest.
package blq

import (
	"context"
	"fmt"
	"time"

	"antgrass/internal/bdd"
	"antgrass/internal/constraint"
	"antgrass/internal/core"
	"antgrass/internal/hcd"
	"antgrass/internal/metrics"
	"antgrass/internal/pts"
	"antgrass/internal/uf"
)

// DefaultPoolNodes is the default initial BDD pool capacity, playing the
// role of the paper's fixed BuDDy allocation.
const DefaultPoolNodes = 1 << 20

type state struct {
	p     *constraint.Program
	m     *bdd.Manager
	d1    *bdd.Domain // pointer / edge source
	d2    *bdd.Domain // pointee (location)
	d3    *bdd.Domain // edge destination / rule temp
	nodes *uf.UF
	span  []uint32

	P bdd.Node // points-to relation (d1, d2)
	E bdd.Node // copy edges (d1, d3)
	L bdd.Node // zero-offset loads (d1 deref'd, d3 dst)
	S bdd.Node // zero-offset stores (d1 deref'd, d3 src)

	offLoads  []constraint.Constraint
	offStores []constraint.Constraint

	shiftProp  map[int]int // d3 -> d1 (propagation result)
	shiftLoad  map[int]int // d2 -> d1 (load rule result)
	shiftStore map[int]int // d3 -> d1 and d2 -> d3 (store rule result)

	hcdPairs []hcd.Pair
	// renames records every collapse chronologically (lost, winner):
	// rule-produced edges mention pointee values, i.e. raw location
	// ids, which may name collapsed-away nodes; they are canonicalized
	// by replaying this history (the union-find cannot be applied
	// inside a relational product).
	renames [][2]uint32
	stats   core.Stats
}

// Solve runs BLQ (optionally with HCD) on p. The Pts and Worklist fields of
// opts are ignored: BLQ's representation is inherently BDD-based and
// set-at-a-time.
func Solve(p *constraint.Program, opts core.Options) (*core.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pool := opts.BDDPoolNodes
	if pool == 0 {
		pool = DefaultPoolNodes
	}
	n := p.NumVars
	if n == 0 {
		return core.NewResult(p, uf.New(0), nil, core.Stats{}), nil
	}
	// Manager creation allocates the whole BDD node pool up front (the
	// paper's fixed BuDDy sizing), a measurable slice of small solves:
	// attribute it to graph.build alongside seeding the relations.
	setupSpan := opts.Metrics.StartPhase(metrics.PhaseBuild)
	m, doms := bdd.NewManagerWithDomains(uint32(n), 3, pool)
	s := &state{
		p:     p,
		m:     m,
		d1:    doms[0],
		d2:    doms[1],
		d3:    doms[2],
		nodes: uf.New(n),
		span:  make([]uint32, n),
		P:     bdd.False,
		E:     bdd.False,
		L:     bdd.False,
		S:     bdd.False,
	}
	for i := range s.span {
		s.span[i] = p.SpanOf(uint32(i))
	}
	s.shiftProp = s.d3.ShiftTo(s.d1)
	s.shiftLoad = s.d2.ShiftTo(s.d1)
	s.shiftStore = s.d3.ShiftTo(s.d1)
	for k, v := range s.d2.ShiftTo(s.d3) {
		s.shiftStore[k] = v
	}
	setupSpan.End() // ends before the HCD block, which bills its own phase

	if opts.WithHCD {
		table := opts.HCDTable
		if table == nil {
			table = hcd.Analyze(p)
			// Offline pass ran inside this call: it is part of this
			// solve's wall clock (a precomputed table's is not).
			opts.Metrics.AddPhase(metrics.PhaseHCD, table.Duration)
		}
		s.stats.OfflineDuration = table.Duration
		preSpan := opts.Metrics.StartPhase(metrics.PhaseBuild)
		for _, pu := range table.PreUnions {
			rep, lost := s.nodes.Union(pu[0], pu[1])
			if rep != lost {
				s.renames = append(s.renames, [2]uint32{lost, rep})
				s.stats.NodesCollapsed++
			}
		}
		s.hcdPairs = table.Pairs
		preSpan.End()
	}

	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	reg := opts.Metrics
	start := time.Now()
	buildSpan := reg.StartPhase(metrics.PhaseBuild)
	s.build()
	buildSpan.End()
	solveSpan := reg.StartPhase(metrics.PhaseSolve)
	if err := s.run(ctx, reg); err != nil {
		return nil, err
	}
	solveSpan.End()
	finalizeSpan := reg.StartPhase(metrics.PhaseFinalize)
	sets := s.extract()
	s.stats.SolveDuration = time.Since(start)
	s.stats.MemBytes = int64(m.MemBytes() + s.nodes.MemBytes())
	res := core.NewResult(p, s.nodes, sets, s.stats)
	reg.SampleMem()
	s.stats.Export(reg)
	finalizeSpan.End()
	return res, nil
}

// build seeds the relation BDDs from the constraint list (through the
// union-find, so HCD pre-unions are already folded in).
func (s *state) build() {
	find := s.nodes.Find
	for _, c := range s.p.Constraints {
		switch c.Kind {
		case constraint.AddrOf:
			s.P = s.m.Or(s.P, bdd.Pair(s.d1, find(c.Dst), s.d2, c.Src))
		case constraint.Copy:
			src, dst := find(c.Src), find(c.Dst)
			if src != dst {
				s.E = s.m.Or(s.E, bdd.Pair(s.d1, src, s.d3, dst))
				s.stats.EdgesAdded++
			}
		case constraint.Load:
			if c.Offset == 0 {
				s.L = s.m.Or(s.L, bdd.Pair(s.d1, find(c.Src), s.d3, find(c.Dst)))
			} else {
				s.offLoads = append(s.offLoads, c)
			}
		case constraint.Store:
			if c.Offset == 0 {
				s.S = s.m.Or(s.S, bdd.Pair(s.d1, find(c.Dst), s.d3, find(c.Src)))
			} else {
				s.offStores = append(s.offStores, c)
			}
		}
	}
}

// run iterates propagation and rule application to a fixpoint,
// cooperatively checking ctx between iterations. reg (nil ok) receives a
// peak-memory sample per fixpoint round — the BDD node pool dominates
// BLQ's footprint and grows between rounds.
func (s *state) run(ctx context.Context, reg *metrics.Registry) error {
	m := s.m
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("blq: solve canceled: %w", err)
		}
		s.stats.Rounds++
		reg.SampleMem()
		s.propagate()
		changed := false
		// Load rule: a ⊇ *b. ∃d1. L(b,a) ∧ P(b,v) gives (d3=a, d2=v);
		// the new edges are v → a, i.e. (d1=v, d3=a).
		t := m.RelProd(s.L, s.P, s.d1.Cube())
		newE := m.Replace(t, s.shiftLoad)
		// Store rule: *a ⊇ b. ∃d1. S(a,b) ∧ P(a,v) gives (d3=b, d2=v);
		// the new edges are b → v, i.e. (d1=b, d3=v).
		t2 := m.RelProd(s.S, s.P, s.d1.Cube())
		newE2 := m.Replace(t2, s.shiftStore)
		add := m.Diff(s.canonEdges(m.Or(newE, newE2)), s.E)
		// Self-edges are semantically inert; leave them (they cannot
		// change P since P is closed under identity propagation).
		if add != bdd.False {
			s.E = m.Or(s.E, add)
			changed = true
		}
		if s.applyOffsets() {
			changed = true
		}
		if s.applyHCD() {
			changed = true
		}
		if !changed {
			return nil
		}
	}
}

// propagate closes P over the copy edges E, using the incrementalization of
// Berndl et al.: each step joins only the previously new tuples against E.
func (s *state) propagate() {
	m := s.m
	pnew := s.P
	for pnew != bdd.False {
		s.stats.Propagations++
		t := m.RelProd(s.E, pnew, s.d1.Cube()) // (d3 dst, d2 obj)
		t = m.Replace(t, s.shiftProp)          // (d1 dst, d2 obj)
		delta := m.Diff(t, s.P)
		s.P = m.Or(s.P, delta)
		pnew = delta
	}
}

// ptsOf returns the current points-to set of the representative v as a
// value slice (enumerated from P).
func (s *state) ptsOf(v uint32) []uint32 {
	row := s.m.And(s.P, s.d1.Eq(v))
	return s.d2.Values(s.m.Exist(row, s.d1.Cube()))
}

// applyOffsets resolves the indirect-call (non-zero offset) constraints by
// enumerating the base pointer's points-to set.
func (s *state) applyOffsets() bool {
	m := s.m
	find := s.nodes.Find
	changed := false
	for _, c := range s.offLoads {
		for _, v := range s.ptsOf(find(c.Src)) {
			if c.Offset >= s.span[v] {
				continue
			}
			src, dst := find(v+c.Offset), find(c.Dst)
			if src == dst {
				continue
			}
			pair := bdd.Pair(s.d1, src, s.d3, dst)
			if m.Diff(pair, s.E) != bdd.False {
				s.E = m.Or(s.E, pair)
				s.stats.EdgesAdded++
				changed = true
			}
		}
	}
	for _, c := range s.offStores {
		for _, v := range s.ptsOf(find(c.Dst)) {
			if c.Offset >= s.span[v] {
				continue
			}
			src, dst := find(c.Src), find(v+c.Offset)
			if src == dst {
				continue
			}
			pair := bdd.Pair(s.d1, src, s.d3, dst)
			if m.Diff(pair, s.E) != bdd.False {
				s.E = m.Or(s.E, pair)
				s.stats.EdgesAdded++
				changed = true
			}
		}
	}
	return changed
}

// applyHCD fires the offline tuples: for (a, b), every member of pts(a) is
// collapsed with b, renaming rows and columns of the relation BDDs. Pairs
// arrives sorted by Deref, so the collapse sequence is deterministic.
func (s *state) applyHCD() bool {
	if s.hcdPairs == nil {
		return false
	}
	find := s.nodes.Find
	changed := false
	for _, pr := range s.hcdPairs {
		a, b := pr.Deref, pr.Target
		ra := find(a)
		for _, v := range s.ptsOf(ra) {
			rv, rb := find(v), find(b)
			if rv == rb {
				continue
			}
			s.collapse(rv, rb)
			s.stats.HCDCollapses++
			changed = true
		}
	}
	return changed
}

// canonEdges rewrites an edge relation so both endpoints name current
// representatives, replaying the collapse history in order (a pointee
// value inside a rule result may be any historic node id).
func (s *state) canonEdges(E bdd.Node) bdd.Node {
	for _, rn := range s.renames {
		E = s.rename(E, s.d1, rn[0], rn[1])
		E = s.rename(E, s.d3, rn[0], rn[1])
	}
	return E
}

// collapse merges graph nodes x and y: the loser's rows/columns in every
// relation are renamed to the winner. Points-to elements (d2 of P) denote
// memory locations and are never renamed.
func (s *state) collapse(x, y uint32) {
	rep, lost := s.nodes.Union(x, y)
	if rep == lost {
		return
	}
	s.renames = append(s.renames, [2]uint32{lost, rep})
	s.stats.NodesCollapsed++
	s.P = s.rename(s.P, s.d1, lost, rep)
	s.E = s.rename(s.rename(s.E, s.d1, lost, rep), s.d3, lost, rep)
	s.L = s.rename(s.rename(s.L, s.d1, lost, rep), s.d3, lost, rep)
	s.S = s.rename(s.rename(s.S, s.d1, lost, rep), s.d3, lost, rep)
}

// rename moves the tuples of R whose dom-coordinate equals from over to to.
func (s *state) rename(R bdd.Node, dom *bdd.Domain, from, to uint32) bdd.Node {
	m := s.m
	row := m.And(R, dom.Eq(from))
	if row == bdd.False {
		return R
	}
	moved := m.And(m.Exist(row, dom.Cube()), dom.Eq(to))
	return m.Or(m.Diff(R, row), moved)
}

// extract materializes per-representative points-to sets as lightweight
// views over the relation BDD.
func (s *state) extract() []pts.Set {
	sets := make([]pts.Set, s.p.NumVars)
	m := s.m
	for v := uint32(0); v < uint32(s.p.NumVars); v++ {
		if s.nodes.Find(v) != v {
			continue
		}
		row := m.Exist(m.And(s.P, s.d1.Eq(v)), s.d1.Cube())
		if row != bdd.False {
			sets[v] = &rowSet{s: s, node: row}
		}
	}
	return sets
}

// rowSet adapts one variable's slice of the relation BDD to pts.Set.
type rowSet struct {
	s    *state
	node bdd.Node
}

func (r *rowSet) Insert(x uint32) bool {
	n := r.s.m.Or(r.node, r.s.d2.Eq(x))
	if n == r.node {
		return false
	}
	r.node = n
	return true
}

func (r *rowSet) Contains(x uint32) bool {
	return r.s.m.And(r.node, r.s.d2.Eq(x)) != bdd.False
}

func (r *rowSet) UnionWith(o pts.Set) bool {
	n := r.s.m.Or(r.node, o.(*rowSet).node)
	if n == r.node {
		return false
	}
	r.node = n
	return true
}

func (r *rowSet) SubtractCopy(o pts.Set) pts.Set {
	n := r.node
	if o != nil {
		n = r.s.m.Diff(n, o.(*rowSet).node)
	}
	return &rowSet{s: r.s, node: n}
}

func (r *rowSet) Equal(o pts.Set) bool { return r.node == o.(*rowSet).node }

func (r *rowSet) Intersects(o pts.Set) bool {
	return r.s.m.And(r.node, o.(*rowSet).node) != bdd.False
}

func (r *rowSet) ForEach(fn func(uint32) bool) { r.s.d2.ForEach(r.node, fn) }
func (r *rowSet) Len() int                     { return r.s.d2.Count(r.node) }
func (r *rowSet) Empty() bool                  { return r.node == bdd.False }
func (r *rowSet) Slice() []uint32              { return r.s.d2.Values(r.node) }
func (r *rowSet) MemBytes() int                { return 16 }

func (r *rowSet) AppendTo(dst []uint32) []uint32 {
	r.s.d2.ForEach(r.node, func(x uint32) bool {
		dst = append(dst, x)
		return true
	})
	return dst
}
