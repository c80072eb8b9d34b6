package core

import "context"

// solvePKW is the "aggressive" ablation the paper discusses in §5.3:
// Pearce, Kelly and Hankin's original 2003 algorithm [22] detects cycles at
// every edge insertion, using a dynamically maintained topological order to
// skip insertions that cannot create a cycle. We reproduce that work
// profile: a topological position is kept per node; an inserted edge
// u → d with pos(u) > pos(d) (an ordering violation, hence a potential
// cycle) triggers an immediate depth-first search from d, collapsing any
// cycle found, after which the order is repaired locally by moving d's
// region after u. Consistent with the paper's observation, this searches
// far more nodes than LCD/HT/PKH and is roughly an order of magnitude
// slower on cycle-heavy inputs.
func solvePKW(ctx context.Context, g *graph, opts Options) error {
	n := uint32(g.n)
	// Topological position per node; initialized by discovery order and
	// maintained loosely (gaps allowed).
	pos := make([]int64, g.n)
	for i := range pos {
		pos[i] = int64(i)
	}
	var next int64 = int64(g.n)

	w := newWorklist(opts, g.n)
	for v := uint32(0); v < n; v++ {
		r := g.find(v)
		if g.sets[r] != nil && !g.sets[r].Empty() {
			w.Push(r)
		}
	}
	// insert adds edge src → dst with eager cycle detection.
	insert := func(src, dst uint32) bool {
		if !g.addEdge(src, dst) {
			return false
		}
		if pos[src] > pos[dst] {
			// Ordering violation: search for a cycle right now.
			g.stats.CycleChecks++
			if g.detectAndCollapse(dst, w.Push) {
				r := g.find(src)
				next++
				pos[r] = next
			} else {
				// No cycle: restore the invariant by moving dst
				// past src.
				next++
				pos[g.find(dst)] = next
			}
		}
		return true
	}
	var pops int
	var derefScratch []uint32
	done := ctx.Done() // nil for a context that is never canceled
	for {
		x, ok := w.Pop()
		if !ok {
			break
		}
		select {
		case <-done:
			return canceled(ctx.Err(), "PKW worklist solving")
		default:
		}
		if pops++; pops%(progressInterval*16) == 0 {
			g.metrics.SampleMem()
		}
		cur := g.find(x)
		if cur != x {
			w.Push(cur)
			continue
		}
		cur = g.applyHCD(cur, func(rep uint32) { w.Push(rep) })
		set := g.sets[cur]
		if set == nil || set.Empty() {
			continue
		}
		if len(g.loads[cur]) > 0 || len(g.stores[cur]) > 0 {
			loads, stores := g.loads[cur], g.stores[cur]
			// Iterate a snapshot: insert may collapse a cycle and
			// mutate the live set mid-iteration.
			derefScratch = set.AppendTo(derefScratch[:0])
			for _, v := range derefScratch {
				for _, ld := range loads {
					t, valid := g.validTarget(v, ld.Off)
					if !valid {
						continue
					}
					src := g.find(t)
					if insert(src, g.find(ld.Other)) {
						w.Push(g.find(src))
					}
				}
				for _, st := range stores {
					t, valid := g.validTarget(v, st.Off)
					if !valid {
						continue
					}
					src := g.find(st.Other)
					if insert(src, g.find(t)) {
						w.Push(g.find(src))
					}
				}
			}
			cur = g.find(cur)
			set = g.sets[cur]
			if set == nil {
				continue
			}
		}
		for _, z := range g.succsSnapshot(cur) {
			if z == cur {
				continue
			}
			g.stats.Propagations++
			if g.ptsOf(z).UnionWith(set) {
				w.Push(z)
			}
		}
	}
	return nil
}
