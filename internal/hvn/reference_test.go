package hvn_test

// The value-numbering passes as first written, one copy per pass: HVN and
// HU (referenceHVN) and OVS (referenceOVS). Each builds per-node adjacency
// by append, allocates a set per component and groups through a map; the
// engine in hvn.go must produce the same reduced programs, counts and
// pre-unions. Only the names differ from the original code.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"antgrass/internal/bitmap"
	"antgrass/internal/constraint"
	"antgrass/internal/hvn"
	"antgrass/internal/ovs"
	"antgrass/internal/scc"
)

const referenceEmpty = int32(0)

// labelSetHash and setHash are the hash functions behind label-set
// hash-consing (HVN) and evaluated-set interning (HU). They are variables
// so tests can force collisions and prove the equality fallback correct;
// both tables compare full contents on a hash hit.
var (
	referenceLabelSetHash = referenceFNV
	referenceSetHash      = func(b *bitmap.Bitmap) uint64 { return b.Hash() }
)

// referenceFNV is FNV-1a over the little-endian bytes of a sorted label slice.
func referenceFNV(elems []int32) uint64 {
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

// referenceConsEntry is one hash-cons bucket member: a sorted label set and the
// label standing for it.
type referenceConsEntry struct {
	elems []int32
	label int32
}

// referenceSetEntry is one HU intern-table bucket member.
type referenceSetEntry struct {
	set   *bitmap.Bitmap
	label int32
}

// referenceHVN runs one value-numbering pass on p (HVN when hu is false, HU when
// true). p is not modified. Passes compose: feeding one pass's Reduced
// program to the next and concatenating their PreUnions preserves the
// solution of the original program over the original variable ids.
func referenceHVN(p *constraint.Program, hu bool) *hvn.Result {
	start := time.Now()
	n := uint32(p.NumVars)
	total := 3 * n // v, ref(v) = n+v, adr(v) = 2n+v

	// Indirect nodes receive values the offline graph cannot see.
	indirect := make([]bool, total)
	for v := n; v < 2*n; v++ {
		indirect[v] = true // all ref nodes
	}
	// Function return/parameter slots are targets of offset constraints.
	for v := uint32(0); v < n; v++ {
		if s := p.SpanOf(v); s > 1 {
			for k := uint32(1); k < s; k++ {
				indirect[v+k] = true
			}
		}
	}
	succs := make([][]uint32, total)
	preds := make([][]uint32, total)
	addEdge := func(from, to uint32) {
		succs[from] = append(succs[from], to)
		preds[to] = append(preds[to], from)
	}
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.AddrOf:
			indirect[c.Src] = true // address-taken
			addEdge(2*n+c.Src, c.Dst)
		case constraint.Copy:
			addEdge(c.Src, c.Dst)
			addEdge(n+c.Src, n+c.Dst) // implicit
		case constraint.Load:
			if c.Offset == 0 {
				addEdge(n+c.Src, c.Dst)
			} else {
				indirect[c.Dst] = true // unpredictable source
			}
		case constraint.Store:
			// No offline edge; see the package comment.
		}
	}

	// Condense and label in topological (predecessors-first) order.
	comps := scc.Tarjan(int(total), nil, func(x uint32) []uint32 { return succs[x] })
	label := make([]int32, total)
	for i := range label {
		label[i] = -1
	}
	nextLabel := int32(1)

	cons := make(map[uint64][]referenceConsEntry) // HVN hash-cons table
	consLabel := func(peSet map[int32]struct{}) int32 {
		elems := make([]int32, 0, len(peSet))
		for l := range peSet {
			elems = append(elems, l)
		}
		sort.Slice(elems, func(i, j int) bool { return elems[i] < elems[j] })
		h := referenceLabelSetHash(elems)
		for _, e := range cons[h] {
			if referenceLabelsEqual(e.elems, elems) {
				return e.label
			}
		}
		l := nextLabel
		nextLabel++
		cons[h] = append(cons[h], referenceConsEntry{elems, l})
		return l
	}

	var (
		sets     []*bitmap.Bitmap               // HU per-node evaluated sets
		interned map[uint64][]referenceSetEntry // HU intern table
		nextAtom uint32                         // HU atom namespace
	)
	if hu {
		sets = make([]*bitmap.Bitmap, total)
		interned = make(map[uint64][]referenceSetEntry)
	}
	internSet := func(b *bitmap.Bitmap) int32 {
		h := referenceSetHash(b)
		for _, e := range interned[h] {
			if e.set.Equal(b) {
				return e.label
			}
		}
		l := nextLabel
		nextLabel++
		interned[h] = append(interned[h], referenceSetEntry{b, l})
		return l
	}

	for i := len(comps.Comps) - 1; i >= 0; i-- {
		comp := comps.Comps[i]
		// adr nodes have no predecessors, so they are always singleton
		// components; each is its own location.
		isAdr := comp[0] >= 2*n

		if hu {
			set := bitmap.New()
			if isAdr {
				set.Set(nextAtom) // the location atom for this adr node
				nextAtom++
			} else {
				ind := false
				for _, m := range comp {
					if indirect[m] {
						ind = true
						break
					}
				}
				if ind {
					set.Set(nextAtom) // fresh: stands for the unseen part
					nextAtom++
				}
				for _, m := range comp {
					for _, pr := range preds[m] {
						// Same-component predecessors are still nil:
						// their final set is this one, so the union is
						// a no-op. External predecessors are complete
						// (reverse topological order).
						if sets[pr] != nil {
							set.IorWith(sets[pr])
						}
					}
				}
			}
			l := referenceEmpty
			if !set.Empty() {
				l = internSet(set)
			}
			for _, m := range comp {
				sets[m] = set
				label[m] = l
			}
			continue
		}

		// HVN.
		if isAdr {
			label[comp[0]] = nextLabel // unique location label
			nextLabel++
			continue
		}
		// Indirectness is contagious within a component.
		ind := false
		for _, m := range comp {
			if indirect[m] {
				ind = true
				break
			}
		}
		if ind {
			l := nextLabel
			nextLabel++
			for _, m := range comp {
				label[m] = l
			}
			continue
		}
		peSet := map[int32]struct{}{}
		for _, m := range comp {
			for _, pr := range preds[m] {
				// Same-component preds still carry -1, and the empty
				// label contributes nothing.
				if l := label[pr]; l > referenceEmpty {
					peSet[l] = struct{}{}
				}
			}
		}
		var l int32
		switch len(peSet) {
		case 0:
			l = referenceEmpty
		case 1:
			for only := range peSet {
				l = only
			}
		default:
			l = consLabel(peSet)
		}
		for _, m := range comp {
			label[m] = l
		}
	}

	// Unify variables (not refs/adrs) sharing a label, deterministically:
	// groups are visited in order of their first member, and the first
	// (smallest-id) member leads.
	res := &hvn.Result{Before: len(p.Constraints), HU: hu}
	groups := make(map[int32][]uint32)
	var order []int32
	for v := uint32(0); v < n; v++ {
		l := label[v]
		if l == referenceEmpty {
			res.NonPointerVars++
			continue
		}
		if _, ok := groups[l]; !ok {
			order = append(order, l)
		}
		groups[l] = append(groups[l], v)
	}
	rep := make([]uint32, n)
	for v := range rep {
		rep[v] = uint32(v)
	}
	for _, l := range order {
		g := groups[l]
		if len(g) < 2 {
			continue
		}
		for _, v := range g[1:] {
			rep[v] = g[0]
			res.PreUnions = append(res.PreUnions, [2]uint32{g[0], v})
		}
		res.MergedVars += len(g) - 1
	}

	// Rewrite the constraints. AddrOf sources are locations, never
	// rewritten: points-to sets keep original ids (and spans).
	out := p.Clone()
	out.Constraints = out.Constraints[:0]
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.AddrOf:
			out.AddAddrOf(rep[c.Dst], c.Src)
		case constraint.Copy:
			if label[c.Src] == referenceEmpty {
				res.DroppedConstraints++
				continue
			}
			if rep[c.Dst] == rep[c.Src] {
				res.DroppedConstraints++ // provably equal already
				continue
			}
			out.AddCopy(rep[c.Dst], rep[c.Src])
		case constraint.Load:
			if label[c.Src] == referenceEmpty {
				res.DroppedConstraints++ // dereferencing a provable nil
				continue
			}
			out.AddLoad(rep[c.Dst], rep[c.Src], c.Offset)
		case constraint.Store:
			if label[c.Dst] == referenceEmpty || label[c.Src] == referenceEmpty {
				res.DroppedConstraints++
				continue
			}
			out.AddStore(rep[c.Dst], rep[c.Src], c.Offset)
		}
	}
	out.Dedup()
	res.Reduced = out
	res.After = len(out.Constraints)
	res.Duration = time.Since(start)
	return res
}

func referenceLabelsEqual(a, b []int32) bool {
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

// referenceOVS runs the substitution on p. p is not modified.
func referenceOVS(p *constraint.Program) *ovs.Result {
	start := time.Now()
	n := uint32(p.NumVars)
	total := 2 * n // node v = variable v; node n+v = ref(v)

	// Indirect nodes receive values the offline graph cannot see.
	indirect := make([]bool, total)
	for v := n; v < total; v++ {
		indirect[v] = true // all ref nodes
	}
	// Function return/parameter slots are targets of offset constraints.
	for v := uint32(0); v < n; v++ {
		if s := p.SpanOf(v); s > 1 {
			for k := uint32(1); k < s; k++ {
				indirect[v+k] = true
			}
		}
	}
	succs := make([][]uint32, total)
	preds := make([][]uint32, total)
	addEdge := func(from, to uint32) {
		succs[from] = append(succs[from], to)
		preds[to] = append(preds[to], from)
	}
	// Location labels: one per address-taken variable.
	nextLabel := int32(1)
	locLabel := make(map[uint32]int32)
	addrOf := make([][]int32, total) // location labels flowing into a node
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.AddrOf:
			indirect[c.Src] = true // address-taken
			l, ok := locLabel[c.Src]
			if !ok {
				l = nextLabel
				nextLabel++
				locLabel[c.Src] = l
			}
			addrOf[c.Dst] = append(addrOf[c.Dst], l)
		case constraint.Copy:
			addEdge(c.Src, c.Dst)
		case constraint.Load:
			if c.Offset == 0 {
				addEdge(n+c.Src, c.Dst)
			} else {
				indirect[c.Dst] = true // unpredictable source
			}
		case constraint.Store:
			// Stores only affect address-taken variables, which
			// are already indirect; no offline edge needed.
		}
	}

	// Condense and label in topological (predecessors-first) order.
	comps := scc.Tarjan(int(total), nil, func(x uint32) []uint32 { return succs[x] })
	label := make([]int32, total)
	for i := range label {
		label[i] = -1
	}
	hashcons := make(map[string]int32)
	for i := len(comps.Comps) - 1; i >= 0; i-- {
		comp := comps.Comps[i]
		// Indirectness is contagious within a component.
		ind := false
		for _, m := range comp {
			if indirect[m] {
				ind = true
				break
			}
		}
		if ind {
			l := nextLabel
			nextLabel++
			for _, m := range comp {
				label[m] = l
			}
			continue
		}
		peSet := map[int32]struct{}{}
		for _, m := range comp {
			for _, l := range addrOf[m] {
				peSet[l] = struct{}{}
			}
			for _, pr := range preds[m] {
				// External predecessors were labeled in an
				// earlier (topologically smaller) component;
				// same-component preds still carry -1 and the
				// empty label contributes nothing.
				if l := label[pr]; l > referenceEmpty {
					peSet[l] = struct{}{}
				}
			}
		}
		var l int32
		switch len(peSet) {
		case 0:
			l = referenceEmpty
		case 1:
			for only := range peSet {
				l = only
			}
		default:
			l = referenceConsLabel(peSet, hashcons, &nextLabel)
		}
		for _, m := range comp {
			label[m] = l
		}
	}

	// Unify variables (not refs) sharing a non-zero, non-fresh-unique
	// label. Indirect nodes have unique labels so they never group.
	groups := make(map[int32][]uint32)
	for v := uint32(0); v < n; v++ {
		if l := label[v]; l != referenceEmpty {
			groups[l] = append(groups[l], v)
		}
	}
	rep := make([]uint32, n)
	for v := range rep {
		rep[v] = uint32(v)
	}
	res := &ovs.Result{Before: len(p.Constraints)}
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		for _, v := range g[1:] {
			rep[v] = g[0]
			res.PreUnions = append(res.PreUnions, [2]uint32{g[0], v})
		}
	}

	// Rewrite the constraints.
	out := p.Clone()
	out.Constraints = out.Constraints[:0]
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.AddrOf:
			out.AddAddrOf(rep[c.Dst], c.Src)
		case constraint.Copy:
			if label[c.Src] == referenceEmpty {
				continue
			}
			if rep[c.Dst] != rep[c.Src] {
				out.AddCopy(rep[c.Dst], rep[c.Src])
			}
		case constraint.Load:
			if label[c.Src] == referenceEmpty {
				continue // dereferencing a provably null pointer
			}
			out.AddLoad(rep[c.Dst], rep[c.Src], c.Offset)
		case constraint.Store:
			if label[c.Dst] == referenceEmpty || label[c.Src] == referenceEmpty {
				continue
			}
			out.AddStore(rep[c.Dst], rep[c.Src], c.Offset)
		}
	}
	out.Dedup()
	res.Reduced = out
	res.After = len(out.Constraints)
	res.Duration = time.Since(start)
	return res
}

// referenceConsLabel hash-conses a pointer-equivalence set into a label.
func referenceConsLabel(pe map[int32]struct{}, cons map[string]int32, next *int32) int32 {
	elems := make([]int32, 0, len(pe))
	for l := range pe {
		elems = append(elems, l)
	}
	sort.Slice(elems, func(i, j int) bool { return elems[i] < elems[j] })
	var sb strings.Builder
	for _, l := range elems {
		fmt.Fprintf(&sb, "%d,", l)
	}
	key := sb.String()
	if l, ok := cons[key]; ok {
		return l
	}
	l := *next
	*next++
	cons[key] = l
	return l
}
