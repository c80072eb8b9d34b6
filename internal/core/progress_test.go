package core

import (
	"math/rand"
	"testing"
)

// TestProgressSequentialDelivery pins down the sequential solvers' delivery
// contract: events arrive in order with consecutive 1-based rounds,
// cumulative counters never go backwards, and the parallel-only Workers
// field stays zero.
func TestProgressSequentialDelivery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var events []ProgressEvent
	// The sequential solvers report once per progress interval (a few
	// thousand worklist pops), so grow the input until at least one
	// interval elapses.
	for _, size := range []int{400, 800, 1600, 3200} {
		events = events[:0]
		p := biggerRandomProgram(rng, size, 4*size)
		res, err := Solve(p, Options{Algorithm: LCD, Progress: func(ev ProgressEvent) {
			events = append(events, ev)
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Propagations == 0 {
			t.Fatalf("size %d: degenerate solve", size)
		}
		if len(events) > 0 {
			break
		}
	}
	if len(events) == 0 {
		t.Fatal("no progress events even from the largest input")
	}
	for i, ev := range events {
		if ev.Round != i+1 {
			t.Fatalf("event %d delivered with round %d", i, ev.Round)
		}
		if ev.Workers != 0 {
			t.Fatalf("sequential event carries parallel fields: %+v", ev)
		}
		if i > 0 && (ev.Unions < events[i-1].Unions || ev.NodesCollapsed < events[i-1].NodesCollapsed) {
			t.Fatalf("cumulative counters went backwards: %+v then %+v", events[i-1], ev)
		}
	}
}
