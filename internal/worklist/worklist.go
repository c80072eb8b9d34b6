// Package worklist provides the worklist strategies used by the paper's
// solvers: FIFO, LIFO, LRF ("least recently fired", suggested by Pearce et
// al. [22]) and the divided current/next worklist of Nielson et al. [18]
// that the paper reports as significantly faster than a single worklist
// (§5.1).
//
// All worklists have set semantics: pushing an element that is already
// enqueued is a no-op. In a divided worklist the two sections deduplicate
// independently — an element may sit in "current" and "next" at once, which
// is the intended behaviour (work discovered while processing the current
// generation belongs to the next one).
package worklist

import "container/heap"

// Kind selects a worklist strategy.
type Kind int

const (
	// LRF processes the node fired furthest back in time first
	// ("least recently fired"). It is the zero value because it is the
	// strategy the paper's solvers use (§5.1).
	LRF Kind = iota
	// FIFO processes nodes in insertion order.
	FIFO
	// LIFO processes the most recently inserted node first.
	LIFO
)

// String returns the strategy name.
func (k Kind) String() string {
	switch k {
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	case LRF:
		return "lrf"
	}
	return "unknown"
}

// Worklist is a deduplicating queue of node ids.
type Worklist interface {
	// Push enqueues x unless it is already enqueued.
	Push(x uint32)
	// Pop dequeues the next node according to the strategy. ok is false
	// when the worklist is empty.
	Pop() (x uint32, ok bool)
	// Empty reports whether no node is enqueued.
	Empty() bool
	// Len returns the number of enqueued nodes.
	Len() int
}

// New returns a simple (undivided) worklist over nodes 0..n-1 using the
// given strategy.
func New(k Kind, n int) Worklist {
	switch k {
	case LIFO:
		return &stack{member: make([]bool, n)}
	case LRF:
		return newLRF(n)
	default:
		return NewFrontier(n)
	}
}

// NewDivided returns a divided worklist (Nielson et al.): pushes go to the
// "next" section while pops are served from "current"; when current drains
// the two sections swap. Within each section, pops follow the given
// strategy.
func NewDivided(k Kind, n int) Worklist {
	return &divided{cur: New(k, n), next: New(k, n)}
}

type stack struct {
	buf    []uint32
	member []bool
}

func (s *stack) Push(x uint32) {
	if s.member[x] {
		return
	}
	s.member[x] = true
	s.buf = append(s.buf, x)
}

func (s *stack) Pop() (uint32, bool) {
	if len(s.buf) == 0 {
		return 0, false
	}
	x := s.buf[len(s.buf)-1]
	s.buf = s.buf[:len(s.buf)-1]
	s.member[x] = false
	return x, true
}

func (s *stack) Empty() bool { return len(s.buf) == 0 }
func (s *stack) Len() int    { return len(s.buf) }

// lrf is a priority queue keyed by the time each node was last popped
// ("fired"); the node fired longest ago is served first. Nodes that have
// never fired have time 0 and are served in id order before any fired node.
type lrf struct {
	h         lrfHeap
	member    []bool
	lastFired []uint64
	clock     uint64
}

type lrfItem struct {
	node uint32
	prio uint64
}

type lrfHeap []lrfItem

func (h lrfHeap) Len() int { return len(h) }
func (h lrfHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].node < h[j].node
}
func (h lrfHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *lrfHeap) Push(x interface{}) { *h = append(*h, x.(lrfItem)) }
func (h *lrfHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func newLRF(n int) *lrf {
	return &lrf{member: make([]bool, n), lastFired: make([]uint64, n)}
}

func (l *lrf) Push(x uint32) {
	if l.member[x] {
		return
	}
	l.member[x] = true
	heap.Push(&l.h, lrfItem{node: x, prio: l.lastFired[x]})
}

func (l *lrf) Pop() (uint32, bool) {
	if len(l.h) == 0 {
		return 0, false
	}
	it := heap.Pop(&l.h).(lrfItem)
	l.member[it.node] = false
	l.clock++
	l.lastFired[it.node] = l.clock
	return it.node, true
}

func (l *lrf) Empty() bool { return len(l.h) == 0 }
func (l *lrf) Len() int    { return len(l.h) }

type divided struct {
	cur, next Worklist
}

func (d *divided) Push(x uint32) { d.next.Push(x) }

func (d *divided) Pop() (uint32, bool) {
	if d.cur.Empty() {
		if d.next.Empty() {
			return 0, false
		}
		d.cur, d.next = d.next, d.cur
	}
	return d.cur.Pop()
}

func (d *divided) Empty() bool { return d.cur.Empty() && d.next.Empty() }
func (d *divided) Len() int    { return d.cur.Len() + d.next.Len() }
