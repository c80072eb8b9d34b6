package scc

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

// adjacency builds a Succs function from an edge list.
func adjacency(n int, edges [][2]uint32) Succs {
	adj := make([][]uint32, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	return func(x uint32) []uint32 { return adj[x] }
}

// canonical turns a component list into a sorted partition for comparison.
func canonical(comps [][]uint32) [][]uint32 {
	out := make([][]uint32, 0, len(comps))
	for _, c := range comps {
		cc := append([]uint32(nil), c...)
		sort.Slice(cc, func(i, j int) bool { return cc[i] < cc[j] })
		out = append(out, cc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// bruteSCC computes the SCC partition by mutual reachability (Floyd-Warshall).
func bruteSCC(n int, edges [][2]uint32) [][]uint32 {
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
		reach[i][i] = true
	}
	for _, e := range edges {
		reach[e[0]][e[1]] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !reach[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	assigned := make([]bool, n)
	var comps [][]uint32
	for i := 0; i < n; i++ {
		if assigned[i] {
			continue
		}
		comp := []uint32{uint32(i)}
		assigned[i] = true
		for j := i + 1; j < n; j++ {
			if !assigned[j] && reach[i][j] && reach[j][i] {
				comp = append(comp, uint32(j))
				assigned[j] = true
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

func TestSimpleCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 0, 2 -> 3
	edges := [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}}
	for name, f := range map[string]func(int, []uint32, Succs) *Result{"tarjan": Tarjan, "nuutila": Nuutila} {
		r := f(4, nil, adjacency(4, edges))
		got := canonical(r.Comps)
		want := [][]uint32{{0, 1, 2}, {3}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: comps = %v, want %v", name, got, want)
		}
		if r.Visited != 4 {
			t.Errorf("%s: visited = %d, want 4", name, r.Visited)
		}
		// Reverse topological order: {3} (successor) must come first.
		if len(r.Comps[0]) != 1 || r.Comps[0][0] != 3 {
			t.Errorf("%s: first emitted comp = %v, want [3]", name, r.Comps[0])
		}
	}
}

func TestSelfLoop(t *testing.T) {
	edges := [][2]uint32{{0, 0}, {0, 1}}
	r := Nuutila(2, nil, adjacency(2, edges))
	got := canonical(r.Comps)
	want := [][]uint32{{0}, {1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("comps = %v, want %v", got, want)
	}
}

func TestRootsRestriction(t *testing.T) {
	// Two disconnected cycles; search only from node 0's cycle.
	edges := [][2]uint32{{0, 1}, {1, 0}, {2, 3}, {3, 2}}
	r := Tarjan(4, []uint32{0}, adjacency(4, edges))
	if r.Visited != 2 {
		t.Errorf("visited = %d, want 2", r.Visited)
	}
	got := canonical(r.Comps)
	want := [][]uint32{{0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("comps = %v, want %v", got, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	r := Nuutila(0, nil, func(uint32) []uint32 { return nil })
	if len(r.Comps) != 0 || r.Visited != 0 {
		t.Errorf("empty graph: %+v", r)
	}
}

func TestLongChainIterative(t *testing.T) {
	// A deep chain would blow the stack if the implementation recursed.
	const n = 200000
	edges := make([][2]uint32, 0, n)
	for i := uint32(0); i < n-1; i++ {
		edges = append(edges, [2]uint32{i, i + 1})
	}
	r := Tarjan(n, []uint32{0}, adjacency(n, edges))
	if len(r.Comps) != n {
		t.Errorf("comps = %d, want %d", len(r.Comps), n)
	}
	r2 := Nuutila(n, []uint32{0}, adjacency(n, edges))
	if len(r2.Comps) != n {
		t.Errorf("nuutila comps = %d, want %d", len(r2.Comps), n)
	}
}

func randomGraph(rng *rand.Rand, n, m int) [][2]uint32 {
	edges := make([][2]uint32, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
	}
	return edges
}

func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		m := rng.Intn(3 * n)
		edges := randomGraph(rng, n, m)
		want := canonical(bruteSCC(n, edges))
		gotT := canonical(Tarjan(n, nil, adjacency(n, edges)).Comps)
		gotN := canonical(Nuutila(n, nil, adjacency(n, edges)).Comps)
		return reflect.DeepEqual(gotT, want) && reflect.DeepEqual(gotN, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTarjanNuutilaAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		m := rng.Intn(4 * n)
		edges := randomGraph(rng, n, m)
		rt := Tarjan(n, nil, adjacency(n, edges))
		rn := Nuutila(n, nil, adjacency(n, edges))
		if rt.Visited != rn.Visited {
			return false
		}
		return reflect.DeepEqual(canonical(rt.Comps), canonical(rn.Comps))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestReverseTopologicalOrder verifies the documented emission order: for
// every edge u -> v crossing components, v's component is emitted first.
func TestReverseTopologicalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		edges := randomGraph(rng, n, rng.Intn(3*n))
		for name, alg := range map[string]func(int, []uint32, Succs) *Result{"t": Tarjan, "n": Nuutila} {
			_ = name
			r := alg(n, nil, adjacency(n, edges))
			pos := make([]int, n)
			for i, c := range r.Comps {
				for _, v := range c {
					pos[v] = i
				}
			}
			for _, e := range edges {
				if pos[e[0]] < pos[e[1]] {
					return false // successor emitted after predecessor
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestTopoOrderHelper(t *testing.T) {
	edges := [][2]uint32{{0, 1}, {1, 2}}
	r := Tarjan(3, nil, adjacency(3, edges))
	order := r.TopoOrder()
	pos := map[uint32]int{}
	for i, v := range order {
		pos[v] = i
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Errorf("TopoOrder = %v, want 0 before 1 before 2", order)
	}
}

// TestSearcherReuseMatchesTarjan keeps one Searcher across thousands of
// random graphs whose node count grows from one search to the next (as the
// online solvers' graphs do) and now and then starts over smaller, rooted
// at random subsets or at every node.
// Every result must equal a fresh Tarjan run: the same components as sets
// and the same visited count. Stale state from an earlier, larger search
// would show up as skipped or merged nodes.
func TestSearcherReuseMatchesTarjan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Searcher
	n := 1
	for iter := 0; iter < 3000; iter++ {
		if rng.Intn(3) == 0 {
			n += rng.Intn(8)
		}
		if n > 400 {
			n = 1 + rng.Intn(40) // smaller graphs reuse larger arrays
		}
		edges := randomGraph(rng, n, rng.Intn(3*n+1))
		var roots []uint32
		if rng.Intn(4) != 0 {
			roots = make([]uint32, 1+rng.Intn(4))
			for i := range roots {
				roots[i] = uint32(rng.Intn(n))
			}
		}
		succs := adjacency(n, edges)
		got := s.Search(n, roots, succs)
		want := Tarjan(n, roots, succs)
		if got.Visited != want.Visited {
			t.Fatalf("iter %d (n=%d roots=%v): visited %d, Tarjan %d", iter, n, roots, got.Visited, want.Visited)
		}
		if g, w := canonical(got.Comps), canonical(want.Comps); !reflect.DeepEqual(g, w) {
			t.Fatalf("iter %d (n=%d roots=%v): comps %v, Tarjan %v", iter, n, roots, g, w)
		}
	}
}

// TestSearcherReusesOneBuffer: a Succs that returns the same buffer on
// every call is safe, because the Searcher copies each list into its own
// frame arena before the next call.
func TestSearcherReusesOneBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Searcher
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(60)
		edges := randomGraph(rng, n, rng.Intn(3*n+1))
		adj := adjacency(n, edges)
		var buf []uint32
		shared := func(x uint32) []uint32 {
			buf = append(buf[:0], adj(x)...)
			return buf
		}
		got := canonical(s.Search(n, nil, shared).Comps)
		if want := canonical(Tarjan(n, nil, adj).Comps); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: comps %v, want %v", iter, got, want)
		}
	}
}

// TestSearcherKeepsStateBoundedByNodes: a DFS down a complete graph copies
// about n² successors into the frame arena; the Searcher must not keep an
// arena larger than the node count once the search is done, and must
// still search correctly afterwards.
func TestSearcherKeepsStateBoundedByNodes(t *testing.T) {
	const n = 64
	var edges [][2]uint32
	for u := uint32(0); u < n; u++ {
		for v := uint32(0); v < n; v++ {
			if u != v {
				edges = append(edges, [2]uint32{u, v})
			}
		}
	}
	succs := adjacency(n, edges)
	var s Searcher
	for i := 0; i < 2; i++ {
		r := s.Search(n, []uint32{0}, succs)
		if len(r.Comps) != 1 || len(r.Comps[0]) != n || r.Visited != n {
			t.Fatalf("search %d: %d comps, visited %d; want one component of %d", i, len(r.Comps), r.Visited, n)
		}
		if cap(s.arena) > n {
			t.Fatalf("search %d: kept an arena of %d successors for %d nodes", i, cap(s.arena), n)
		}
	}
}

// chainsGraph is a large sparse graph of disjoint chains of length k whose
// last node closes a cycle back to the chain's first node.
func chainsGraph(n, k int) Succs {
	adj := make([][]uint32, n)
	for v := 0; v < n; v++ {
		next := v + 1
		if next%k == 0 || next == n {
			next = v - v%k
		}
		adj[v] = []uint32{uint32(next)}
	}
	return func(x uint32) []uint32 { return adj[x] }
}

// TestSearcherWarmSearchAllocatesNothing: once warm, a small search on a
// large graph allocates nothing — it neither zeroes nor grows an O(n)
// array.
func TestSearcherWarmSearchAllocatesNothing(t *testing.T) {
	const n = 200000
	succs := chainsGraph(n, 4)
	var s Searcher
	roots := []uint32{n / 2}
	s.Search(n, roots, succs)
	allocs := testing.AllocsPerRun(100, func() {
		if r := s.Search(n, roots, succs); r.Visited != 4 {
			t.Fatalf("visited = %d, want 4", r.Visited)
		}
	})
	if allocs != 0 {
		t.Errorf("warm 4-node search allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkSearch runs small searches (8-node cycles) on a sparse graph of
// 200k nodes, the shape of the online solvers' cycle checks, once with a
// reused Searcher and once with a one-shot Nuutila per search. It reports
// the time and the bytes allocated per visited node.
func BenchmarkSearch(b *testing.B) {
	const n = 200000
	succs := chainsGraph(n, 8)
	roots := make([][]uint32, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range roots {
		roots[i] = []uint32{uint32(rng.Intn(n))}
	}
	var s Searcher
	for _, bc := range []struct {
		name   string
		search func(roots []uint32) *Result
	}{
		{"reused", func(roots []uint32) *Result { return s.Search(n, roots, succs) }},
		{"oneshot", func(roots []uint32) *Result { return Nuutila(n, roots, succs) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.search(roots[0])
			var visited int
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				visited += bc.search(roots[i%len(roots)]).Visited
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/node")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(visited), "B/node")
		})
	}
}

func BenchmarkNuutilaDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	edges := randomGraph(rng, n, 4*n)
	adj := adjacency(n, edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Nuutila(n, nil, adj)
	}
}
