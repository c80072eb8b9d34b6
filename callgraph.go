package antgrass

import (
	"cmp"
	"slices"
	"strings"
)

// CallEdge is one resolved call-graph edge.
type CallEdge struct {
	// Caller is the calling function ("<toplevel>" for initializers).
	Caller string
	// Callee is the resolved target function.
	Callee string
	// Line is the call site's source line.
	Line int
	// Indirect marks edges resolved through a function pointer's
	// points-to set.
	Indirect bool
}

// CallGraph resolves every call site of a compiled unit against a solved
// analysis: direct calls contribute their static target, indirect calls
// contribute one edge per function in the pointer's points-to set. This is
// the client analysis the paper's indirect-call handling exists for.
//
// Edges are listed once each, sorted by caller, line and callee. Every
// name is numbered once, and the call sites are grouped by caller and
// line, so duplicates are found and edges sorted on integers.
func CallGraph(u *Unit, r *Result) []CallEdge {
	// Number the functions, then the other names as they are met.
	names := make([]string, 0, len(u.Funcs))
	fn := make([]uint32, max(u.Prog.NumVars, r.snap.NumVars())) // function variable -> name number+1
	for name, v := range u.Funcs {
		if int(v) < len(fn) {
			fn[v] = uint32(len(names)) + 1
			names = append(names, name)
		}
	}
	others := map[string]uint32{}
	intern := func(s string) uint32 {
		if v, ok := u.Funcs[s]; ok && int(v) < len(fn) && names[fn[v]-1] == s {
			return fn[v] - 1
		}
		id, ok := others[s]
		if !ok {
			id = uint32(len(names))
			others[s] = id
			names = append(names, s)
		}
		return id
	}
	type site struct {
		caller, callee, index uint32 // callee: direct calls only
		line                  int
	}
	sites := make([]site, len(u.CallSites))
	bound := 0 // edges found, duplicates included
	lastCaller, callerID := "", uint32(0)
	for i, cs := range u.CallSites {
		name := cs.Caller
		if name == "" {
			name = "<toplevel>"
		}
		if i == 0 || name != lastCaller {
			lastCaller, callerID = name, intern(name)
		}
		sites[i] = site{caller: callerID, index: uint32(i), line: cs.Line}
		if cs.Indirect {
			bound += r.PointsToLen(cs.FuncPtr)
		} else {
			sites[i].callee = intern(cs.Callee)
			bound++
		}
	}

	// Rank the names, then order the sites by caller, line and index.
	type named struct {
		name string
		id   uint32
	}
	byName := make([]named, len(names))
	for i, name := range names {
		byName[i] = named{name, uint32(i)}
	}
	slices.SortFunc(byName, func(a, b named) int { return strings.Compare(a.name, b.name) })
	rank := make([]uint32, len(names))
	for i, n := range byName {
		rank[n.id] = uint32(i)
	}
	for i := range sites {
		sites[i].caller, sites[i].callee = rank[sites[i].caller], rank[sites[i].callee]
	}
	slices.SortFunc(sites, func(a, b site) int {
		if a.caller != b.caller {
			return cmp.Compare(a.caller, b.caller)
		}
		if a.line != b.line {
			return cmp.Compare(a.line, b.line)
		}
		return cmp.Compare(a.index, b.index)
	})

	// Sites with the same caller and line form a group, numbered in that
	// order, and only sites in one group can find the same edge. Keep each
	// edge where its group first finds it: mark[2*callee+indirect] is the
	// last group, plus one, to find it.
	type found struct{ site, group, callee uint32 }
	var groups []site // each group's first site
	kept := make([]found, 0, bound)
	mark := make([]uint32, 2*len(names))
	var objs []VarID
	for j, s := range sites {
		if j == 0 || s.caller != sites[j-1].caller || s.line != sites[j-1].line {
			groups = append(groups, s)
		}
		g := uint32(len(groups))
		cs := &u.CallSites[s.index]
		if !cs.Indirect {
			if k := 2 * s.callee; mark[k] != g {
				mark[k] = g
				kept = append(kept, found{s.index, g, s.callee})
			}
			continue
		}
		objs = r.snap.appendPointsTo(objs[:0], cs.FuncPtr)
		for _, o := range objs {
			if f := fn[o]; f != 0 {
				if c := rank[f-1]; mark[2*c+1] != g {
					mark[2*c+1] = g
					kept = append(kept, found{s.index, g, c})
				}
			}
		}
	}
	if len(kept) == 0 {
		return nil
	}

	// Put the edges back in the order found and sort them there, so that
	// edges that differ only in Indirect end in the order sort.Slice
	// leaves them in on the named edges (slices.SortFunc runs the same
	// pdqsort). An edge's key is its group's number, its callee's rank and
	// the indirect bit, which the sort ignores.
	at := make([]uint32, len(u.CallSites)+1) // counting sort by site
	for _, e := range kept {
		at[e.site+1]++
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	keys := make([]uint64, len(kept))
	for _, e := range kept {
		k := uint64(e.group-1)<<33 | uint64(e.callee)<<1
		if u.CallSites[e.site].Indirect {
			k |= 1
		}
		keys[at[e.site]] = k
		at[e.site]++
	}
	slices.SortFunc(keys, func(a, b uint64) int { return cmp.Compare(a>>1, b>>1) })
	out := make([]CallEdge, len(keys))
	for i, k := range keys {
		g := groups[k>>33]
		out[i] = CallEdge{
			Caller:   byName[g.caller].name,
			Callee:   byName[uint32(k>>1)].name,
			Line:     g.line,
			Indirect: k&1 != 0,
		}
	}
	return out
}
