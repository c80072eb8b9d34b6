package antgrass

import (
	"cmp"

	"antgrass/internal/bitmap"
)

// ModRefInfo holds, per function, the memory locations possibly written
// (Mod) and read (Ref) through pointer dereferences — the classic MOD/REF
// side-effect summary client of pointer analysis (the paper's introduction
// motivates pointer information as "a prerequisite for most program
// analyses"; this is one of them).
type ModRefInfo struct {
	// Mod maps a function name to the sorted locations its stores may
	// write through pointers.
	Mod map[string][]VarID
	// Ref maps a function name to the sorted locations its loads may
	// read through pointers.
	Ref map[string][]VarID
}

// Modifies reports whether fn may write loc (through a pointer).
func (m *ModRefInfo) Modifies(fn string, loc VarID) bool {
	return contains(m.Mod[fn], loc)
}

// References reports whether fn may read loc (through a pointer).
func (m *ModRefInfo) References(fn string, loc VarID) bool {
	return contains(m.Ref[fn], loc)
}

func contains(sorted []VarID, x VarID) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == x
}

// ComputeModRef summarizes every function's pointer-mediated side effects
// from the compiled unit's dereference sites and the solved points-to
// information. With transitive set, each function's sets also absorb its
// (direct and resolved indirect) callees' sets, propagated over the call
// graph to a fixpoint.
func ComputeModRef(u *Unit, r *Result, transitive bool) *ModRefInfo {
	s := modRefSets{fns: map[string]int32{}, pool: bitmap.NewPool()}
	s.direct(u, r.snap)
	if transitive {
		s.closeOver(CallGraph(u, r))
	}
	out := &ModRefInfo{Mod: map[string][]VarID{}, Ref: map[string][]VarID{}}
	for f, name := range s.names {
		for w, dst := range [2]map[string][]VarID{out.Ref, out.Mod} {
			if b := s.sets[2*f+w]; b != nil {
				dst[name] = b.AppendTo(make([]VarID, 0, b.Count()))
			}
		}
	}
	return out
}

// modRefSets numbers the functions of one ComputeModRef call and holds
// their locations in bitmaps: slot 2f is function f's REF set and slot
// 2f+1 its MOD set. A nil slot is a function with no entry in that map.
type modRefSets struct {
	fns   map[string]int32
	names []string
	sets  []*bitmap.Bitmap
	pool  *bitmap.Pool // elements of sets, carved out in chunks
}

// fn returns the number of the named function.
func (s *modRefSets) fn(name string) int32 {
	f, ok := s.fns[name]
	if !ok {
		f = int32(len(s.names))
		s.fns[name] = f
		s.names = append(s.names, name)
		s.sets = append(s.sets, nil, nil)
	}
	return f
}

// direct unions each function's dereferenced points-to sets into its
// slots, once per distinct representative a slot dereferences. The sites
// are bucketed by slot first (a counting sort), since one function's
// sites interleave with its closures' and its reads with its writes.
func (s *modRefSets) direct(u *Unit, sn *Snapshot) {
	slot := make([]int32, len(u.DerefSites))
	last, f := "", int32(-1)
	for i, d := range u.DerefSites {
		if f < 0 || d.Fn != last {
			last, f = d.Fn, s.fn(cmp.Or(d.Fn, "<toplevel>"))
		}
		slot[i] = 2 * f
		if d.Write {
			slot[i]++
		}
	}
	start := make([]int32, len(s.sets)+1)
	for _, k := range slot {
		start[k+1]++
	}
	for k := range s.sets {
		start[k+1] += start[k]
	}
	next := append([]int32(nil), start...)
	order := make([]int32, len(slot))
	for i, k := range slot {
		order[next[k]] = int32(i)
		next[k]++
	}
	seen := make([]int32, sn.NumVars()) // slot+1 that last unioned each representative
	for k := range s.sets {
		if start[k] == start[k+1] {
			continue
		}
		b := bitmap.NewIn(s.pool)
		s.sets[k] = b
		for _, i := range order[start[k]:start[k+1]] {
			rep := sn.Rep(u.DerefSites[i].Ptr)
			if int(rep) >= len(seen) || seen[rep] == int32(k)+1 {
				continue
			}
			seen[rep] = int32(k) + 1
			sn.unionInto(b, rep)
		}
	}
}

// closeOver makes every caller's slots absorb its callees', iterating
// over the call edges to a fixpoint.
func (s *modRefSets) closeOver(edges []CallEdge) {
	type pair struct{ caller, callee int32 }
	pairs := make([]pair, len(edges))
	for i, e := range edges {
		pairs[i] = pair{s.fn(e.Caller), s.fn(e.Callee)}
	}
	for changed := true; changed; {
		changed = false
		for _, e := range pairs {
			for w := int32(0); w < 2; w++ {
				src := s.sets[2*e.callee+w]
				if src == nil || src.Empty() {
					continue
				}
				dst := &s.sets[2*e.caller+w]
				if *dst == nil {
					*dst = bitmap.NewIn(s.pool)
				}
				if (*dst).IorWith(src) {
					changed = true
				}
			}
		}
	}
}
