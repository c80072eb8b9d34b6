package worklist

// Frontier is the FIFO worklist: a deduplicating queue of node ids. Push
// ignores an id that is already pending; Pop returns ids in the order they
// were first pushed, and a popped id may be re-pushed at once. New(FIFO, n)
// returns one behind the Worklist interface; the parallel engine's owners
// use the concrete type directly as their private dirty queues. A Frontier
// is single-threaded: each owner touches only its own.
type Frontier struct {
	nodes  []uint32
	head   int // consumed prefix of nodes
	member []bool
}

// NewFrontier returns an empty frontier over nodes 0..n-1.
func NewFrontier(n int) *Frontier {
	return &Frontier{member: make([]bool, n)}
}

// Push adds x unless it is already pending.
func (f *Frontier) Push(x uint32) {
	if f.member[x] {
		return
	}
	f.member[x] = true
	f.nodes = append(f.nodes, x)
}

// Empty reports whether no node is pending.
func (f *Frontier) Empty() bool { return f.head >= len(f.nodes) }

// Len returns the number of pending nodes.
func (f *Frontier) Len() int { return len(f.nodes) - f.head }

// Pop removes and returns the oldest pending node; false means the
// frontier is empty. The backing slice is rewound whenever the queue
// empties, so steady-state use does not grow it.
func (f *Frontier) Pop() (uint32, bool) {
	if f.head >= len(f.nodes) {
		return 0, false
	}
	x := f.nodes[f.head]
	f.head++
	f.member[x] = false
	if f.head == len(f.nodes) {
		f.nodes = f.nodes[:0]
		f.head = 0
	}
	return x, true
}
