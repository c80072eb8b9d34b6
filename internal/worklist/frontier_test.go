package worklist

import (
	"math/rand"
	"reflect"
	"testing"
)

// popAll drains f with Pop and returns the nodes in pop order.
func popAll(f *Frontier) []uint32 {
	var out []uint32
	for {
		x, ok := f.Pop()
		if !ok {
			return out
		}
		out = append(out, x)
	}
}

// TestFrontierPushDrain pins deduplication and FIFO order: duplicate
// pushes of a pending node are dropped, and draining returns the nodes in
// first-push order, not sorted.
func TestFrontierPushDrain(t *testing.T) {
	f := NewFrontier(10)
	if !f.Empty() || f.Len() != 0 {
		t.Fatal("new frontier not empty")
	}
	for _, x := range []uint32{7, 3, 3, 9, 0, 7} {
		f.Push(x)
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d after deduplicated pushes, want 4", f.Len())
	}
	if got := popAll(f); !reflect.DeepEqual(got, []uint32{7, 3, 9, 0}) {
		t.Fatalf("drain = %v, want first-push order without duplicates", got)
	}
	if !f.Empty() {
		t.Fatal("frontier not empty after drain")
	}
	// Refill after drain: membership must have been reset.
	f.Push(3)
	if got := popAll(f); !reflect.DeepEqual(got, []uint32{3}) {
		t.Fatalf("refill drain = %v", got)
	}
}

// TestFrontierDrainOrderRandom interleaves random pushes and pops against
// a model queue: every pop must return the model's oldest pending node,
// and a node is pending at most once.
func TestFrontierDrainOrderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		f := NewFrontier(n)
		var model []uint32
		pending := map[uint32]bool{}
		for i := 0; i < 300; i++ {
			if rng.Intn(3) > 0 {
				x := uint32(rng.Intn(n))
				f.Push(x)
				if !pending[x] {
					pending[x] = true
					model = append(model, x)
				}
				continue
			}
			x, ok := f.Pop()
			if ok != (len(model) > 0) {
				t.Fatalf("trial %d: Pop ok = %v with %d pending", trial, ok, len(model))
			}
			if !ok {
				continue
			}
			if x != model[0] {
				t.Fatalf("trial %d: Pop = %d, want %d", trial, x, model[0])
			}
			model = model[1:]
			delete(pending, x)
		}
		if got := popAll(f); len(got) != len(model) || (len(got) > 0 && !reflect.DeepEqual(got, model)) {
			t.Fatalf("trial %d: final drain = %v, want %v", trial, got, model)
		}
	}
}

// TestFrontierDrainReuse pins re-pushing after a pop: a popped node is no
// longer pending, so pushing it again queues it behind the nodes still
// waiting — the owner loop relies on this to requeue a node whose set
// grew while it was being processed.
func TestFrontierDrainReuse(t *testing.T) {
	f := NewFrontier(16)
	for _, x := range []uint32{5, 1, 9} {
		f.Push(x)
	}
	if x, _ := f.Pop(); x != 5 {
		t.Fatalf("first Pop = %d, want 5", x)
	}
	f.Push(5) // re-push right after its pop
	f.Push(1) // still pending: dropped
	if got := popAll(f); !reflect.DeepEqual(got, []uint32{1, 9, 5}) {
		t.Fatalf("drain = %v, want [1 9 5]", got)
	}
}

// TestFrontierSteadyStateAllocs checks that a warmed frontier's
// push/pop cycle allocates nothing: the queue rewinds its backing slice
// whenever it empties instead of growing it.
func TestFrontierSteadyStateAllocs(t *testing.T) {
	const n = 512
	f := NewFrontier(n)
	round := func() {
		for x := uint32(0); x < n; x++ {
			f.Push(x)
			f.Push(x)
		}
		if got := len(popAll(f)); got != n {
			t.Fatalf("drained %d, want %d", got, n)
		}
	}
	round() // warm the backing slice
	pushPop := func() {
		for x := uint32(0); x < n; x++ {
			f.Push(x)
		}
		for {
			if _, ok := f.Pop(); !ok {
				break
			}
		}
	}
	if avg := testing.AllocsPerRun(20, pushPop); avg != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times, want 0", avg)
	}
}

// BenchmarkFrontierPushPop measures a steady-state fill-and-empty cycle of
// an owner's dirty queue.
func BenchmarkFrontierPushPop(b *testing.B) {
	const n = 4096
	f := NewFrontier(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := uint32(0); x < n; x++ {
			f.Push(x)
		}
		for {
			if _, ok := f.Pop(); !ok {
				break
			}
		}
	}
}
