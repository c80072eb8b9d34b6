// Package hcd implements the offline half of Hybrid Cycle Detection
// (§4.2 of the paper), a linear-time static analysis run before the pointer
// analysis proper.
//
// The offline constraint graph has one node per program variable plus one
// "ref" node per variable (standing for the variable's unknown points-to
// set). Edges are derived from the simple and complex constraints:
//
//	a ⊇ b    yields  b      → a
//	a ⊇ *b   yields  ref(b) → a
//	*a ⊇ b   yields  b      → ref(a)
//
// Base (address-of) constraints are ignored. SCCs are then found with
// Tarjan's algorithm:
//
//   - an SCC with only non-ref nodes is a genuine structural cycle and may
//     be collapsed before solving starts (PreUnions);
//   - an SCC containing a ref node ref(a) may justify a tuple (a, b): the
//     online analysis then unions every member of pts(a) with the non-ref
//     node b as soon as it is discovered (Pairs).
//
// # The offline-pair precondition
//
// Recording (a, b) asserts unconditionally that every v ∈ pts(a) ends up in
// a cycle with b in the online constraint graph. That is only guaranteed
// when ref(a) and b lie on an offline cycle whose every OTHER node is a
// non-ref node: var→var edges exist online from the start, the SCC's store
// edges into ref(a) become online edges x → v for each v ∈ pts(a), and its
// load edges out of ref(a) become online edges v → y, so the cycle
// b →* x → v → y →* b materializes the moment v enters pts(a).
//
// If the only cycles connecting ref(a) and b thread through a second ref
// node ref(c), the online cycle exists only if pts(c) turns out non-empty —
// an assumption the offline analysis cannot make. Acting on such a pair
// over-collapses: it can merge a variable the least fixpoint keeps separate
// and leak points-to members into it (see docs/ALGORITHMS.md §HCD for the
// worked example, minimized from random-program seed -4666488491679278325).
// Analyze therefore emits (a, b) only when b is on a cycle with ref(a) in
// the subgraph induced by the SCC's non-ref members plus ref(a) alone; ref
// nodes whose every cycle is mediated by another ref node contribute no
// pair. Dropping a pair is always safe — HCD is incomplete by design, and
// the online cycle, if it ever materializes, is found by the solver's own
// cycle detection (LCD, PKH, PKW) or plain propagation.
//
// Constraints with a non-zero offset (indirect-call encodings) contribute no
// offline edges: their targets depend on per-pointee arithmetic the offline
// graph cannot express. This only makes HCD detect fewer cycles, which is
// safe for the same reason.
package hcd

import (
	"math/bits"
	"sort"
	"time"

	"antgrass/internal/constraint"
	"antgrass/internal/scc"
)

// Pair is one offline tuple (a, b): when the online analysis discovers a
// member v of pts(Deref), it may union v with Target (Figure 5 of the
// paper).
type Pair struct {
	// Deref is the variable a whose ref node anchors the cycle.
	Deref uint32
	// Target is the chosen non-ref cycle member b.
	Target uint32
}

// Result is the output of the offline analysis, consumed by the solvers.
type Result struct {
	// Pairs lists the offline tuples in ascending Deref order (each
	// Deref appears at most once — a ref node lives in exactly one SCC).
	// The deterministic order makes every consumer's collapse sequence,
	// and therefore any failure, reproducible bit-identically.
	Pairs []Pair
	// PreUnions lists pairs of variables that are in a purely structural
	// cycle and can be collapsed before solving begins.
	PreUnions [][2]uint32
	// Duration is the offline analysis time (reported separately in
	// Table 3, "HCD-Offline").
	Duration time.Duration
	// SCCs is the number of non-trivial SCCs found in the offline graph.
	SCCs int
}

// Analyze runs the offline analysis on p.
func Analyze(p *constraint.Program) *Result {
	start := time.Now()
	n := uint32(p.NumVars)
	// Offline graph nodes: v in [0,n) is variable v; n+v is ref(v). The
	// graph is static, so its adjacency is laid out in two passes: count
	// each node's out-degree, then fill, keeping constraint order.
	edge := func(c constraint.Constraint) (from, to uint32, ok bool) {
		switch c.Kind {
		case constraint.Copy:
			return c.Src, c.Dst, true
		case constraint.Load:
			return n + c.Src, c.Dst, c.Offset == 0
		case constraint.Store:
			return c.Src, n + c.Dst, c.Offset == 0
		}
		return 0, 0, false
	}
	adj := &csr{off: make([]uint32, 2*n+1)}
	for _, c := range p.Constraints {
		if from, _, ok := edge(c); ok {
			adj.off[from+1]++
		}
	}
	for i := 1; i < len(adj.off); i++ {
		adj.off[i] += adj.off[i-1]
	}
	adj.succ = make([]uint32, adj.off[2*n])
	next := append([]uint32(nil), adj.off[:2*n]...)
	for _, c := range p.Constraints {
		if from, to, ok := edge(c); ok {
			adj.succ[next[from]] = to
			next[from]++
		}
	}
	res := &Result{}
	sccRes := scc.Tarjan(int(2*n), nil, adj.of)
	lic := newLicenser(n, adj)
	for _, comp := range sccRes.Comps {
		if len(comp) < 2 {
			continue
		}
		res.SCCs++
		// Partition into variable and ref members.
		var vars, refs []uint32
		for _, m := range comp {
			if m < n {
				vars = append(vars, m)
			} else {
				refs = append(refs, m-n)
			}
		}
		if len(refs) == 0 {
			// Structural cycle: collapse offline.
			for i := 1; i < len(vars); i++ {
				res.PreUnions = append(res.PreUnions, [2]uint32{vars[0], vars[i]})
			}
			continue
		}
		if len(vars) == 0 {
			// Cannot happen: there are no constraints of the form
			// *p ⊇ *q, so ref nodes never connect directly. Guard
			// anyway.
			continue
		}
		res.Pairs = lic.pairs(res.Pairs, vars, refs)
		// The non-ref members of a mixed SCC are NOT collapsed
		// offline: their mutual cycle only materializes online if the
		// ref's points-to set turns out non-empty, and collapsing
		// early could lose precision (§4.2).
	}
	sort.Slice(res.Pairs, func(i, j int) bool { return res.Pairs[i].Deref < res.Pairs[j].Deref })
	res.Duration = time.Since(start)
	return res
}

// csr is a static adjacency: the successors of x are succ[off[x]:off[x+1]].
type csr struct {
	off  []uint32
	succ []uint32
}

func (g *csr) of(x uint32) []uint32 { return g.succ[g.off[x]:g.off[x+1]] }

// licenser computes the licensed tuples of mixed SCCs. Its scratch arrays
// are reused from one SCC to the next, so the work per SCC is linear in the
// SCC's size.
type licenser struct {
	n   uint32
	adj *csr // the offline graph
	// local maps a variable to its index in the current SCC's vars, and
	// refPos maps a to the position of ref(a) in its refs; both are -1
	// outside the current SCC.
	local, refPos []int32

	vg     csr      // the var→var edges inside the SCC, by local index
	compOf []int32  // condensation component of each local var
	minVar []uint32 // smallest variable id in each component
	fwd    []uint64 // per component: refs whose load targets reach it
	bwd    []uint64 // per component: refs whose store sources it reaches
}

func newLicenser(n uint32, adj *csr) *licenser {
	l := &licenser{n: n, adj: adj, local: make([]int32, n), refPos: make([]int32, n)}
	for i := range l.local {
		l.local[i] = -1
		l.refPos[i] = -1
	}
	return l
}

// pairs appends to out the licensed tuples of one mixed SCC: for each ref
// member ref(a), the pair (a, b) where b is the smallest var member on a
// cycle with ref(a) in the subgraph restricted to the SCC's var members
// plus ref(a) itself (no other ref nodes). Refs with no such cycle emit
// nothing — their cycles are conditional on another ref's points-to set.
//
// b is on such a cycle exactly when it is reachable, through var members
// only, from one of ref(a)'s load targets and reaches one of ref(a)'s
// store sources. Instead of two walks per ref, the var-only subgraph is
// condensed once with Tarjan's algorithm, and the refs travel 64 at a time
// as bitmasks over the condensation: forward from each ref's load targets
// in topological order, backward from its store sources in reverse
// topological order. Within a component every member reaches every other,
// so a ref's target is the smallest variable of any component that holds
// its bit in both directions. The cost is O((V+E)·⌈refs/64⌉) for an SCC
// with V var members and E edges among them.
func (l *licenser) pairs(out []Pair, vars, refs []uint32) []Pair {
	n, adj := l.n, l.adj
	for i, v := range vars {
		l.local[v] = int32(i)
	}
	for k, a := range refs {
		l.refPos[a] = int32(k)
	}
	defer func() {
		for _, v := range vars {
			l.local[v] = -1
		}
		for _, a := range refs {
			l.refPos[a] = -1
		}
	}()

	vg := &l.vg
	vg.off = append(vg.off[:0], 0)
	vg.succ = vg.succ[:0]
	for _, v := range vars {
		for _, w := range adj.of(v) {
			if w < n && l.local[w] >= 0 {
				vg.succ = append(vg.succ, uint32(l.local[w]))
			}
		}
		vg.off = append(vg.off, uint32(len(vg.succ)))
	}
	cond := scc.Tarjan(len(vars), nil, vg.of).Comps // reverse topological
	nc := len(cond)
	l.compOf = grown(l.compOf, len(vars))
	l.minVar = grown(l.minVar, nc)
	for c, members := range cond {
		best := vars[members[0]]
		for _, i := range members {
			l.compOf[i] = int32(c)
			best = min(best, vars[i])
		}
		l.minVar[c] = best
	}
	l.fwd = grown(l.fwd, nc)
	l.bwd = grown(l.bwd, nc)

	for base := 0; base < len(refs); base += 64 {
		chunk := refs[base:min(base+64, len(refs))]
		clear(l.fwd)
		clear(l.bwd)
		// Seeds: ref(a) → y for each load y ⊇ *a, and x → ref(a) for
		// each store *a ⊇ x, restricted to the SCC's var members.
		for k, a := range chunk {
			for _, y := range adj.of(n + a) {
				if i := l.local[y]; i >= 0 {
					l.fwd[l.compOf[i]] |= 1 << k
				}
			}
		}
		for i, x := range vars {
			for _, w := range adj.of(x) {
				if w < n {
					continue
				}
				if k := int(l.refPos[w-n]) - base; k >= 0 && k < len(chunk) {
					l.bwd[l.compOf[i]] |= 1 << k
				}
			}
		}
		// Forward in topological order: a component's mask is final
		// once every predecessor, later in cond, has pushed into it.
		for c := nc - 1; c >= 0; c-- {
			m := l.fwd[c]
			if m == 0 {
				continue
			}
			for _, i := range cond[c] {
				for _, j := range vg.of(i) {
					l.fwd[l.compOf[j]] |= m
				}
			}
		}
		// Backward in reverse topological order: every successor,
		// earlier in cond, is final before its predecessors read it.
		for c := 0; c < nc; c++ {
			m := l.bwd[c]
			for _, i := range cond[c] {
				for _, j := range vg.of(i) {
					m |= l.bwd[l.compOf[j]]
				}
			}
			l.bwd[c] = m
		}
		var best [64]uint32
		var found uint64
		for c := 0; c < nc; c++ {
			for both := l.fwd[c] & l.bwd[c]; both != 0; both &= both - 1 {
				k := bits.TrailingZeros64(both)
				if found&(1<<k) == 0 || l.minVar[c] < best[k] {
					best[k] = l.minVar[c]
					found |= 1 << k
				}
			}
		}
		for k, a := range chunk {
			if found&(1<<k) != 0 {
				out = append(out, Pair{Deref: a, Target: best[k]})
			}
		}
	}
	return out
}

// grown returns s resized to length n, reusing its backing when it is
// large enough. The contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
