// Package hvn implements offline value numbering: the OVS pre-processing
// step of the paper (§5.1) and the HVN and HU passes of Hardekopf and
// Lin's companion paper, "Exploiting Pointer and Location Equivalence to
// Optimize Pointer Analysis" (SAS 2007). All three are one engine, Run,
// with two switches (Pass); internal/ovs wraps the OVS setting.
//
// Every pass assigns each variable a pointer-equivalence label such that
// equal labels imply provably identical final points-to sets; variables
// sharing a label are then unified, and variables whose label is the
// distinguished ∅ label 0 (provably empty points-to set) have their
// constraints deleted outright. The offline constraint graph has three
// nodes per variable v:
//
//	v        the variable itself
//	ref(v)   the unknown result of dereferencing v (= n+v)
//	adr(v)   the location &v (= 2n+v)
//
// and edges
//
//	a = &b   adr(b) → a
//	a = b    b → a, plus (Pass.Implicit: HVN and HU) the implicit edge
//	         ref(b) → ref(a): pts(a) ⊇ pts(b) implies that everything
//	         readable through a includes everything readable through b
//	a = *b   ref(b) → a (offset 0 only; an offset dereference lands on
//	         function slots the offline graph cannot resolve, so a is
//	         marked indirect instead)
//	*a = b   no edge. Stores only affect address-taken variables, which are
//	         already indirect (see below), so the edge would add no sound
//	         merges — and licensing merges on offline store paths is
//	         exactly the over-collapse trap the HCD precondition in
//	         docs/ALGORITHMS.md guards against.
//
// Indirect nodes — every ref node, address-taken variables (stores can add
// to them at solve time), function return/parameter slots (targets of
// offset dereferences), and destinations of offset loads — can receive
// values the offline graph cannot see, so they never share a label with
// anything outside their own strongly connected component. Within an SCC
// labels are shared: an SCC of explicit copy edges has one final solution
// online, and an SCC of ref nodes (mutual implicit edges) dereferences
// pointers with mutually-included points-to sets.
//
// OVS and HVN label direct nodes by the set of labels reaching them: the
// empty set is label 0, a singleton reuses its one label (collapsing copy
// chains off indirect nodes), and larger sets are hash-consed so equal
// sets share one label. HU (Pass.Union) is strictly stronger: instead of
// comparing label *sets* symbolically it evaluates the unions, over one
// atom per adr node and per indirect SCC, so a ⊇ {x,y} reached directly
// and through an intermediate copy compare equal, which HVN's unevaluated
// sets cannot see.
//
// HU evaluates only what it must. An adr node or indirect SCC adds a
// fresh atom, so its set differs from every set numbered before it and
// takes a new label unseen; a node with one distinct input label shares
// it. A union of several inputs contains each input's set, and a set
// that holds a fresh atom contains the whole set the atom was minted
// with. So if the union equals an earlier fresh set F, the input holding
// F's atom lies between F and the union and equals both: a union equals
// an earlier fresh set only if it equals its widest input, which a count
// decides. Only the remaining unions are interned, and only their
// inputs' sets, with the sets those are built from, are ever
// materialized.
//
// The engine numbers the graph in one pass: a Tarjan search over the
// predecessor graph, stored as flat offset and edge arrays, completes
// components sources first and labels each as it completes. Run then
// rewrites the constraints through the unification map and reports
// merged-variable / dropped-constraint counts for the metrics and bench
// layers. Passes compose through their PreUnions.
package hvn

import (
	"slices"
	"time"

	"antgrass/internal/bitmap"
	"antgrass/internal/constraint"
	"antgrass/internal/hcd"
)

// Result is the outcome of one value-numbering pass.
type Result struct {
	// Reduced is the rewritten program (same variable universe).
	Reduced *constraint.Program
	// PreUnions lists variable pairs the solver must union before
	// solving, so queries on any original variable keep working. Groups
	// appear in the order of their smallest member, which leads.
	PreUnions [][2]uint32
	// Before and After are the constraint counts on either side of the
	// pass (After reflects deduplication too).
	Before, After int
	// MergedVars counts variables unified into a representative.
	MergedVars int
	// NonPointerVars counts variables proven to have empty points-to
	// sets (label 0); their constraints are dropped.
	NonPointerVars int
	// DroppedConstraints counts constraints deleted because an operand
	// was a non-pointer (plus copies made self-loops by unification);
	// duplicates the rewrite drops are visible in Before/After only.
	DroppedConstraints int
	// HU records whether union evaluation was enabled.
	HU bool
	// Duration is the pass's wall-clock time.
	Duration time.Duration
}

// PreUnionTable wraps the pre-unions in an hcd.Result so they can be
// handed to any solver through its HCD-table hook (with no online pairs).
func (r *Result) PreUnionTable() *hcd.Result {
	return &hcd.Result{PreUnions: r.PreUnions}
}

// ReductionPercent returns the percentage of constraints eliminated.
func (r *Result) ReductionPercent() float64 {
	if r.Before == 0 {
		return 0
	}
	return 100 * float64(r.Before-r.After) / float64(r.Before)
}

// Pass selects the variant Run numbers with. The zero Pass is OVS.
type Pass struct {
	// Implicit adds the edge ref(b) → ref(a) for every copy a = b (HVN
	// and HU).
	Implicit bool
	// Union evaluates unions instead of hash-consing label sets (HU).
	Union bool
}

// labelSetHash and setHash are the hash functions behind label-set
// hash-consing and evaluated-set interning. They are variables so tests
// can force collisions and prove the equality fallback correct; both
// tables compare full contents on a hash hit.
var (
	labelSetHash = fnvLabels
	setHash      = func(b *bitmap.Bitmap) uint64 { return b.Hash() }
)

// fnvLabels is FNV-1a over the little-endian bytes of a sorted label slice.
func fnvLabels(elems []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range elems {
		x := uint32(e)
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(x))
			h *= 1099511628211
			x >>= 8
		}
	}
	return h
}

// Reduce runs HVN on p, or HU when hu is set. p is not modified. Passes
// compose: feeding one pass's Reduced program to the next and
// concatenating their PreUnions preserves the solution of the original
// program over the original variable ids.
func Reduce(p *constraint.Program, hu bool) *Result {
	return Run(p, Pass{Implicit: true, Union: hu})
}

// Run numbers p under pass and rewrites it. p is not modified.
func Run(p *constraint.Program, pass Pass) *Result {
	start := time.Now()
	e := newEngine(p, pass)
	e.number()
	res := e.rewrite(p)
	res.HU = pass.Union
	res.Duration = time.Since(start)
	return res
}

// consEntry is one hash-consed label set, elems[lo:hi], and its label.
type consEntry struct{ lo, hi, label int32 }

// engine holds one pass's graph and labels. Nodes are numbered as in the
// package comment; only variable and ref nodes are searched, and an adr
// node is labeled when the graph is built.
type engine struct {
	n        uint32
	union    bool
	off      []int32  // node x's predecessors are in[off[x]:off[x+1]]
	in       []uint32 // predecessor nodes
	indirect []bool   // per variable
	label    []int32  // per node; -1 until numbered
	next     int32    // the next unused label

	stamp  []int32 // label → the last scan that listed it
	serial int32
	inputs []int32 // the distinct input labels of the component at hand

	// OVS and HVN: hash-consed label sets, back to back in elems.
	cons  map[uint64][]consEntry
	elems []int32

	// HU: sets[l] is label l's evaluated set, nil until needed. A label
	// minted for an adr node or an indirect component has the inputs
	// freshIn[freshEnd[l-1]:freshEnd[l]]; a union label has none, since
	// its set is built when it is minted.
	sets     []*bitmap.Bitmap
	freshEnd []int32
	freshIn  []int32
	interned map[uint64][]int32 // union labels by set hash
	todo     []int32
}

// newEngine builds p's predecessor graph in two counting passes, marks
// the indirect variables and labels the adr node of every address-taken
// variable.
func newEngine(p *constraint.Program, pass Pass) *engine {
	n := uint32(p.NumVars)
	e := &engine{
		n:        n,
		union:    pass.Union,
		indirect: make([]bool, n),
		label:    make([]int32, 3*n),
		next:     1,
		stamp:    make([]int32, 3*n+1), // at most one label per adr node and per component
	}
	for i := range e.label {
		e.label[i] = -1
	}
	if e.union {
		e.sets = []*bitmap.Bitmap{nil}
		e.freshEnd = []int32{0}
		e.interned = make(map[uint64][]int32)
	} else {
		e.cons = make(map[uint64][]consEntry)
	}
	// Function return/parameter slots are targets of offset constraints.
	for v := uint32(0); v < n; v++ {
		for k := uint32(1); k < p.SpanOf(v); k++ {
			e.indirect[v+k] = true
		}
	}
	// off[x] counts x's predecessors, then (prefix sums) ends them; the
	// fill below walks each back to its start.
	nodes := 2 * n
	e.off = make([]int32, nodes+1)
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.AddrOf:
			e.indirect[c.Src] = true // address-taken
			if a := 2*n + c.Src; e.label[a] < 0 {
				e.label[a] = e.mint(nil)
			}
			e.off[c.Dst]++
		case constraint.Copy:
			e.off[c.Dst]++
			if pass.Implicit {
				e.off[n+c.Dst]++
			}
		case constraint.Load:
			if c.Offset == 0 {
				e.off[c.Dst]++
			} else {
				e.indirect[c.Dst] = true // unpredictable source
			}
		case constraint.Store:
			// No offline edge; see the package comment.
		}
	}
	for x := uint32(1); x < nodes; x++ {
		e.off[x] += e.off[x-1]
	}
	if nodes > 0 {
		e.off[nodes] = e.off[nodes-1]
	}
	e.in = make([]uint32, e.off[nodes])
	edge := func(from, to uint32) {
		e.off[to]--
		e.in[e.off[to]] = from
	}
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.AddrOf:
			edge(2*n+c.Src, c.Dst)
		case constraint.Copy:
			edge(c.Src, c.Dst)
			if pass.Implicit {
				edge(n+c.Src, n+c.Dst)
			}
		case constraint.Load:
			if c.Offset == 0 {
				edge(n+c.Src, c.Dst)
			}
		}
	}
	return e
}

// mint returns a new label. Under HU, inputs are the labels a fresh
// atom's set unites with it.
func (e *engine) mint(inputs []int32) int32 {
	l := e.next
	e.next++
	if e.union {
		e.freshIn = append(e.freshIn, inputs...)
		e.freshEnd = append(e.freshEnd, int32(len(e.freshIn)))
		e.sets = append(e.sets, nil)
	}
	return l
}

// frame is one node of the search path and the next predecessor to scan.
type frame struct {
	v  uint32
	at int32
}

// number labels every variable, and every ref node that reaches one, with
// Tarjan's algorithm over the predecessor graph. Components complete in
// reverse topological order of that graph, which is topological order of
// the constraint graph, so a component's external inputs are all labeled
// when it completes; predecessors still unlabeled are its own members.
func (e *engine) number() {
	nodes := 2 * e.n
	idx := make([]int32, nodes) // discovery number, 0 until visited
	low := make([]int32, nodes)
	var (
		stack []uint32
		path  []frame
		count int32
	)
	visit := func(v uint32) {
		count++
		idx[v], low[v] = count, count
		stack = append(stack, v)
		path = append(path, frame{v, e.off[v]})
	}
	for root := uint32(0); root < e.n; root++ {
		if idx[root] != 0 {
			continue
		}
		visit(root)
		for len(path) > 0 {
			f := &path[len(path)-1]
			v := f.v
			if f.at < e.off[v+1] {
				w := e.in[f.at]
				f.at++
				switch {
				case w >= nodes: // an adr node, labeled already
				case idx[w] == 0:
					visit(w)
				case e.label[w] < 0 && idx[w] < low[v]: // on the stack
					low[v] = idx[w]
				}
				continue
			}
			path = path[:len(path)-1]
			if low[v] == idx[v] {
				k := len(stack) - 1
				for stack[k] != v {
					k--
				}
				e.labelComponent(stack[k:])
				stack = stack[:k]
			} else if u := path[len(path)-1].v; low[v] < low[u] {
				low[u] = low[v]
			}
		}
	}
}

// labelComponent labels one completed component.
func (e *engine) labelComponent(members []uint32) {
	fresh := false
	for _, m := range members {
		if m >= e.n || e.indirect[m] {
			fresh = true // indirectness is contagious within a component
			break
		}
	}
	var l int32
	if fresh && !e.union {
		l = e.mint(nil)
	} else {
		in := e.distinctInputs(members)
		switch {
		case fresh:
			l = e.mint(in)
		case len(in) == 0:
			l = 0
		case len(in) == 1:
			l = in[0]
		case e.union:
			l = e.unionLabel(in)
		default:
			l = e.consLabel(in)
		}
	}
	for _, m := range members {
		e.label[m] = l
	}
}

// distinctInputs returns the distinct non-zero labels of the members'
// predecessors, in a buffer reused by the next call.
func (e *engine) distinctInputs(members []uint32) []int32 {
	e.serial++
	in := e.inputs[:0]
	for _, m := range members {
		for _, w := range e.in[e.off[m]:e.off[m+1]] {
			if l := e.label[w]; l > 0 && e.stamp[l] != e.serial {
				e.stamp[l] = e.serial
				in = append(in, l)
			}
		}
	}
	e.inputs = in
	return in
}

// consLabel hash-conses a set of two or more labels into one label.
func (e *engine) consLabel(in []int32) int32 {
	slices.Sort(in)
	h := labelSetHash(in)
	for _, c := range e.cons[h] {
		if slices.Equal(e.elems[c.lo:c.hi], in) {
			return c.label
		}
	}
	l := e.mint(nil)
	lo := int32(len(e.elems))
	e.elems = append(e.elems, in...)
	e.cons[h] = append(e.cons[h], consEntry{lo, int32(len(e.elems)), l})
	return l
}

// unionLabel labels the union of two or more input labels' sets (HU).
func (e *engine) unionLabel(in []int32) int32 {
	e.build(in)
	u := bitmap.New()
	widest, most := int32(0), -1
	for _, l := range in {
		u.IorWith(e.sets[l])
		if c := e.sets[l].Count(); c > most {
			widest, most = l, c
		}
	}
	if u.Count() == most {
		return widest // the union adds nothing to its widest input
	}
	h := setHash(u)
	for _, l := range e.interned[h] {
		if e.sets[l].Equal(u) {
			return l
		}
	}
	l := e.mint(nil)
	e.sets[l] = u
	e.interned[h] = append(e.interned[h], l)
	return l
}

// build materializes the sets of the labels in ls and of every label
// they are built from. A label's inputs are smaller than the label, so
// building in increasing label order builds inputs first.
func (e *engine) build(ls []int32) {
	e.serial++
	todo := e.todo[:0]
	for _, l := range ls {
		if e.sets[l] == nil && e.stamp[l] != e.serial {
			e.stamp[l] = e.serial
			todo = append(todo, l)
		}
	}
	for i := 0; i < len(todo); i++ {
		l := todo[i]
		for _, x := range e.freshIn[e.freshEnd[l-1]:e.freshEnd[l]] {
			if e.sets[x] == nil && e.stamp[x] != e.serial {
				e.stamp[x] = e.serial
				todo = append(todo, x)
			}
		}
	}
	slices.Sort(todo)
	for _, l := range todo {
		s := bitmap.New()
		for _, x := range e.freshIn[e.freshEnd[l-1]:e.freshEnd[l]] {
			s.IorWith(e.sets[x])
		}
		s.Set(uint32(l)) // the label's own atom
		e.sets[l] = s
	}
	e.todo = todo
}

// rewrite unifies the variables sharing a label and rewrites p's
// constraints through the unification.
func (e *engine) rewrite(p *constraint.Program) *Result {
	res := &Result{Before: len(p.Constraints)}
	n := e.n
	label := e.label[:n]
	// leader[l] is the first variable labeled l; at[l] is where the
	// pairs of l's group go, groups ordered by their leaders.
	leader := make([]uint32, e.next)
	at := make([]int32, e.next)
	for v := uint32(0); v < n; v++ {
		l := label[v]
		if l == 0 {
			res.NonPointerVars++
			continue
		}
		if at[l] == 0 {
			leader[l] = v
		}
		at[l]++
	}
	pairs := int32(0)
	for v := uint32(0); v < n; v++ {
		if l := label[v]; l != 0 && leader[l] == v {
			size := at[l]
			at[l] = pairs
			pairs += size - 1
		}
	}
	if pairs > 0 {
		res.PreUnions = make([][2]uint32, pairs)
		for v := uint32(0); v < n; v++ {
			if l := label[v]; l != 0 && leader[l] != v {
				res.PreUnions[at[l]] = [2]uint32{leader[l], v}
				at[l]++
			}
		}
	}
	res.MergedVars = int(pairs)
	rep := func(v uint32) uint32 {
		if l := label[v]; l != 0 {
			return leader[l]
		}
		return v
	}

	// AddrOf sources are locations, never rewritten: points-to sets keep
	// original ids (and spans).
	out := &constraint.Program{
		NumVars:     p.NumVars,
		Names:       append([]string(nil), p.Names...),
		Span:        append([]uint32(nil), p.Span...),
		Constraints: make([]constraint.Constraint, 0, len(p.Constraints)),
	}
	seen := newConstraintSet(len(p.Constraints))
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.AddrOf:
			c = constraint.Constraint{Kind: constraint.AddrOf, Dst: rep(c.Dst), Src: c.Src}
		case constraint.Copy:
			if label[c.Src] == 0 || rep(c.Dst) == rep(c.Src) {
				res.DroppedConstraints++ // from a provable nil, or provably equal already
				continue
			}
			c = constraint.Constraint{Kind: constraint.Copy, Dst: rep(c.Dst), Src: rep(c.Src)}
		case constraint.Load:
			if label[c.Src] == 0 {
				res.DroppedConstraints++ // dereferencing a provable nil
				continue
			}
			c.Dst, c.Src = rep(c.Dst), rep(c.Src)
		case constraint.Store:
			if label[c.Dst] == 0 || label[c.Src] == 0 {
				res.DroppedConstraints++
				continue
			}
			c.Dst, c.Src = rep(c.Dst), rep(c.Src)
		default:
			continue
		}
		if seen.add(out.Constraints, c) {
			out.Constraints = append(out.Constraints, c)
		}
	}
	res.Reduced = out
	res.After = len(out.Constraints)
	return res
}

// constraintSet finds repeated constraints in a list being built: an
// open-addressing table of list indices plus one, 0 for an empty slot.
type constraintSet struct {
	slots []uint32
	shift uint
}

func newConstraintSet(n int) constraintSet {
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	return constraintSet{make([]uint32, 1<<bits), 64 - bits}
}

// add reports whether c is missing from list, and if so records it as
// list's next element.
func (s constraintSet) add(list []constraint.Constraint, c constraint.Constraint) bool {
	h := uint64(c.Dst)<<32 | uint64(c.Src)
	h ^= (uint64(c.Offset)<<8 | uint64(c.Kind)) * 0xff51afd7ed558ccd
	mask := uint64(len(s.slots) - 1)
	for i := (h * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch at := s.slots[i]; {
		case at == 0:
			s.slots[i] = uint32(len(list)) + 1
			return true
		case list[at-1] == c:
			return false
		}
	}
}
