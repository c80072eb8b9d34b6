// Package scc computes strongly connected components of directed graphs.
//
// Two algorithms are provided: Tarjan's classic single-pass algorithm [26]
// and Nuutila and Soisalon-Soininen's variant [19], which avoids pushing
// nodes of trivial components onto the component stack. The paper's solvers
// use the Nuutila variant (§5.1); both are implemented here and
// property-tested against each other and against a brute-force reachability
// oracle.
//
// Both entry points visit only nodes reachable from the given roots, which
// is what Lazy Cycle Detection needs (a search rooted at the target of a
// propagation edge), and both report the number of nodes visited, which is
// the "nodes searched" statistic of §5.3. A Searcher runs the Nuutila
// variant repeatedly over one growing graph and keeps its state between
// searches, so that each search costs what it visits: the online solvers'
// cycle checks each visit a handful of nodes of a graph with many thousands.
package scc

// Succs returns the successors of node x. The algorithms never modify the
// returned slice. Tarjan retains it while x's frame is live; a Searcher
// copies it before it calls Succs again, so Succs may return the same
// buffer every time.
type Succs func(x uint32) []uint32

// Result holds the outcome of an SCC computation.
type Result struct {
	// Comps lists every visited component in reverse topological order:
	// if the condensed graph has an edge C1 -> C2, then C2 appears before
	// C1. Trivial (single-node) components are included.
	Comps [][]uint32
	// Visited is the number of distinct nodes visited by the search.
	Visited int
}

// TopoOrder returns the visited component representatives (first member of
// each component) in topological order (predecessors first).
func (r *Result) TopoOrder() []uint32 {
	out := make([]uint32, len(r.Comps))
	for i, c := range r.Comps {
		out[len(out)-1-i] = c[0]
	}
	return out
}

const unvisited = 0

type tarjanState struct {
	succs   Succs
	index   []uint32 // 1-based discovery index; 0 = unvisited
	lowlink []uint32
	onstack []bool
	stack   []uint32
	frames  []frame
	members []uint32 // visited nodes, grouped by component
	ends    []int    // end offset in members of each component
	nextIdx uint32
	res     *Result
}

type frame struct {
	v    uint32
	out  []uint32
	next int
}

// Tarjan computes the SCCs reachable from roots in a graph with nodes
// 0..n-1. If roots is nil, all nodes are used as roots.
func Tarjan(n int, roots []uint32, succs Succs) *Result {
	s := &tarjanState{
		succs:   succs,
		index:   make([]uint32, n),
		lowlink: make([]uint32, n),
		onstack: make([]bool, n),
		res:     &Result{},
	}
	if roots == nil {
		for v := 0; v < n; v++ {
			if s.index[v] == unvisited {
				s.visit(uint32(v))
			}
		}
	} else {
		for _, v := range roots {
			if s.index[v] == unvisited {
				s.visit(v)
			}
		}
	}
	// One backing array for all components instead of one per component.
	s.res.Comps = make([][]uint32, len(s.ends))
	lo := 0
	for i, hi := range s.ends {
		s.res.Comps[i] = s.members[lo:hi:hi]
		lo = hi
	}
	return s.res
}

func (s *tarjanState) push(v uint32) {
	s.nextIdx++
	s.index[v] = s.nextIdx
	s.lowlink[v] = s.nextIdx
	s.onstack[v] = true
	s.stack = append(s.stack, v)
	s.frames = append(s.frames, frame{v: v, out: s.succs(v)})
	s.res.Visited++
}

func (s *tarjanState) visit(root uint32) {
	s.push(root)
	for len(s.frames) > 0 {
		f := &s.frames[len(s.frames)-1]
		if f.next < len(f.out) {
			w := f.out[f.next]
			f.next++
			if s.index[w] == unvisited {
				s.push(w)
			} else if s.onstack[w] && s.index[w] < s.lowlink[f.v] {
				s.lowlink[f.v] = s.index[w]
			}
			continue
		}
		// All successors of f.v processed.
		v := f.v
		if s.lowlink[v] == s.index[v] {
			for {
				w := s.stack[len(s.stack)-1]
				s.stack = s.stack[:len(s.stack)-1]
				s.onstack[w] = false
				s.members = append(s.members, w)
				if w == v {
					break
				}
			}
			s.ends = append(s.ends, len(s.members))
		}
		s.frames = s.frames[:len(s.frames)-1]
		if len(s.frames) > 0 {
			p := &s.frames[len(s.frames)-1]
			if s.lowlink[v] < s.lowlink[p.v] {
				s.lowlink[p.v] = s.lowlink[v]
			}
		}
	}
}

// Searcher runs Nuutila and Soisalon-Soininen's variant of Tarjan's
// algorithm and keeps its search state between calls, so a search costs
// what it visits rather than the size of the graph. The per-node arrays
// grow lazily to the largest n a caller passes and are reset, after each
// search, only at the nodes that search visited; successor lists are
// copied into a frame-stack arena, so a Succs that reuses one buffer per
// call is safe. The zero value is ready to use. A Searcher is not safe for
// concurrent use.
type Searcher struct {
	index  []uint32 // 1-based discovery index; 0 = unvisited
	root   []uint32 // candidate root (by node id), valid once visited
	inComp []bool

	stack  []uint32 // only potential non-root members are stacked
	frames []searchFrame
	arena  []uint32 // successor lists of the frames, in frame order

	members []uint32 // visited nodes, grouped by component
	ends    []uint32 // end offset in members of each component
	nextIdx uint32
	res     Result
}

// searchFrame is one DFS frame; its successors are arena[next:end].
type searchFrame struct {
	v, next, end uint32
}

// Nuutila computes the SCCs reachable from roots using Nuutila and
// Soisalon-Soininen's variant of Tarjan's algorithm, which keeps only
// candidate component members on the explicit stack. If roots is nil, all
// nodes are used as roots. It is a one-shot Searcher: callers that search
// the same graph repeatedly should keep a Searcher instead.
func Nuutila(n int, roots []uint32, succs Succs) *Result {
	var s Searcher
	return s.Search(n, roots, succs)
}

// Search computes the SCCs reachable from roots in a graph with nodes
// 0..n-1, exactly as Nuutila does. If roots is nil, all nodes are used as
// roots. The Result and its components belong to the Searcher and are
// valid until the next Search.
func (s *Searcher) Search(n int, roots []uint32, succs Succs) *Result {
	s.prepare(n)
	if roots == nil {
		for v := 0; v < n; v++ {
			if s.index[v] == unvisited {
				s.visit(uint32(v), succs)
			}
		}
	} else {
		for _, v := range roots {
			if s.index[v] == unvisited {
				s.visit(v, succs)
			}
		}
	}
	// Every visited node ended up in exactly one component, so the
	// component members are the reset list.
	s.res.Comps = s.res.Comps[:0]
	lo := uint32(0)
	for _, hi := range s.ends {
		s.res.Comps = append(s.res.Comps, s.members[lo:hi:hi])
		lo = hi
	}
	for _, v := range s.members {
		s.index[v] = unvisited
		s.inComp[v] = false
	}
	// Every buffer but the arena is bounded by the node count. A search
	// down a path of dense nodes can copy far more successors than the
	// graph has nodes, so an arena larger than that is not kept.
	if cap(s.arena) > len(s.index) {
		s.arena = nil
	}
	return &s.res
}

// prepare sizes the per-node arrays for n nodes and clears the previous
// search's buffers.
func (s *Searcher) prepare(n int) {
	if n > len(s.index) {
		grow := n - len(s.index)
		s.index = append(s.index, make([]uint32, grow)...)
		s.root = append(s.root, make([]uint32, grow)...)
		s.inComp = append(s.inComp, make([]bool, grow)...)
	}
	s.members = s.members[:0]
	s.ends = s.ends[:0]
	s.nextIdx = 0
	s.res.Visited = 0
}

func (s *Searcher) push(v uint32, succs Succs) {
	s.nextIdx++
	s.index[v] = s.nextIdx
	s.root[v] = v
	start := uint32(len(s.arena))
	s.arena = append(s.arena, succs(v)...)
	s.frames = append(s.frames, searchFrame{v: v, next: start, end: uint32(len(s.arena))})
	s.res.Visited++
}

func (s *Searcher) visit(start uint32, succs Succs) {
	s.push(start, succs)
	for len(s.frames) > 0 {
		f := &s.frames[len(s.frames)-1]
		if f.next < f.end {
			w := s.arena[f.next]
			f.next++
			if s.index[w] == unvisited {
				s.push(w, succs)
			} else if !s.inComp[w] {
				if s.index[s.root[w]] < s.index[s.root[f.v]] {
					s.root[f.v] = s.root[w]
				}
			}
			continue
		}
		v := f.v
		s.frames = s.frames[:len(s.frames)-1]
		// The frame's successors were appended when it went on top, so
		// they start where its parent's end.
		if len(s.frames) > 0 {
			s.arena = s.arena[:s.frames[len(s.frames)-1].end]
		} else {
			s.arena = s.arena[:0]
		}
		if s.root[v] == v {
			s.inComp[v] = true
			s.members = append(s.members, v)
			for len(s.stack) > 0 && s.index[s.stack[len(s.stack)-1]] > s.index[v] {
				w := s.stack[len(s.stack)-1]
				s.stack = s.stack[:len(s.stack)-1]
				s.inComp[w] = true
				s.members = append(s.members, w)
			}
			s.ends = append(s.ends, uint32(len(s.members)))
		} else {
			s.stack = append(s.stack, v)
		}
		if len(s.frames) > 0 {
			p := &s.frames[len(s.frames)-1]
			if !s.inComp[v] && s.index[s.root[v]] < s.index[s.root[p.v]] {
				s.root[p.v] = s.root[v]
			}
		}
	}
}
