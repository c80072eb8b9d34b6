package core

import (
	"container/heap"
	"context"
	"time"
)

// solvePKH implements the algorithm of Pearce, Kelly and Hankin [21]: the
// explicit transitive closure is maintained, and instead of searching for
// cycles at every edge insertion, the entire constraint graph is
// periodically swept with an SCC pass and all cycles formed since the last
// sweep are collapsed. Between sweeps, dirty nodes are processed in the
// topological order the sweep produced; work discovered "upstream" of the
// current position is deferred to the next round.
func solvePKH(ctx context.Context, g *graph, opts Options) error {
	n := uint32(g.n)
	pending := make([]uint32, 0, g.n)
	inPending := make([]bool, g.n)
	pushNext := func(v uint32) {
		if !inPending[v] {
			inPending[v] = true
			pending = append(pending, v)
		}
	}
	for v := uint32(0); v < n; v++ {
		r := g.find(v)
		if g.sets[r] != nil && !g.sets[r].Empty() {
			pushNext(r)
		}
	}

	pos := make([]int32, g.n) // topological position of each rep this round
	inRound := make([]bool, g.n)
	var derefScratch []uint32
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return canceled(err, "PKH sweep round")
		}
		g.stats.Rounds++
		g.metrics.SampleMem()
		// Periodic whole-graph sweep: find and collapse every cycle.
		var sweepStart time.Time
		if g.metrics != nil {
			sweepStart = time.Now()
		}
		g.stats.CycleChecks++
		roots := make([]uint32, 0, g.n)
		for v := uint32(0); v < n; v++ {
			if g.find(v) == v {
				roots = append(roots, v)
			}
		}
		res := g.search.Search(g.n, roots, g.succsOf)
		g.stats.NodesSearched += int64(res.Visited)
		for _, comp := range res.Comps {
			if len(comp) < 2 {
				continue
			}
			rep := comp[0]
			for _, m := range comp[1:] {
				rep = g.unite(rep, m)
			}
		}
		if g.metrics != nil {
			g.cycleNS += time.Since(sweepStart).Nanoseconds()
		}
		// Topological positions: res.Comps is in reverse topological
		// order, so the last component comes first.
		for i := range pos {
			pos[i] = -1
		}
		for i, comp := range res.Comps {
			pos[g.find(comp[0])] = int32(len(res.Comps) - 1 - i)
		}

		// Seed this round's queue with the pending nodes.
		var h pkhHeap
		pushRound := func(v uint32) {
			if !inRound[v] {
				inRound[v] = true
				heap.Push(&h, pkhItem{node: v, pos: pos[v]})
			}
		}
		work := pending
		pending = make([]uint32, 0, g.n)
		for i := range inPending {
			inPending[i] = false
		}
		for _, v := range work {
			pushRound(g.find(v))
		}

		for h.Len() > 0 {
			it := heap.Pop(&h).(pkhItem)
			inRound[it.node] = false
			cur := g.find(it.node)
			if cur != it.node {
				pushNext(cur) // absorbed mid-round; redo next round
				continue
			}
			curPos := pos[cur]
			// schedule routes work either later this round (strictly
			// downstream in topological order) or to the next round.
			schedule := func(v uint32) {
				v = g.find(v)
				if pos[v] > curPos {
					pushRound(v)
				} else {
					pushNext(v)
				}
			}
			cur = g.applyHCD(cur, pushNext)
			set := g.sets[cur]
			if set == nil || set.Empty() {
				continue
			}
			if len(g.loads[cur]) > 0 || len(g.stores[cur]) > 0 {
				loads, stores := g.loads[cur], g.stores[cur]
				// Word-level snapshot instead of a per-bit closure walk.
				derefScratch = set.AppendTo(derefScratch[:0])
				for _, v := range derefScratch {
					for _, ld := range loads {
						t, valid := g.validTarget(v, ld.Off)
						if !valid {
							continue
						}
						src := g.find(t)
						if g.addEdge(src, g.find(ld.Other)) {
							schedule(src)
						}
					}
					for _, st := range stores {
						t, valid := g.validTarget(v, st.Off)
						if !valid {
							continue
						}
						src := g.find(st.Other)
						if g.addEdge(src, g.find(t)) {
							schedule(src)
						}
					}
				}
			}
			for _, z := range g.succsSnapshot(cur) {
				if z == cur {
					continue
				}
				g.stats.Propagations++
				if g.ptsOf(z).UnionWith(set) {
					schedule(z)
				}
			}
		}
	}
	return nil
}

type pkhItem struct {
	node uint32
	pos  int32
}

type pkhHeap []pkhItem

func (h pkhHeap) Len() int { return len(h) }
func (h pkhHeap) Less(i, j int) bool {
	if h[i].pos != h[j].pos {
		return h[i].pos < h[j].pos
	}
	return h[i].node < h[j].node
}
func (h pkhHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pkhHeap) Push(x interface{}) { *h = append(*h, x.(pkhItem)) }
func (h *pkhHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
