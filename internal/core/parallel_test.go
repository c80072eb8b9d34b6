package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"antgrass/internal/pts"
)

// TestParallelMatchesOracle cross-checks the parallel engine against the
// map-based reference fixpoint on a few hundred random programs, for both
// parallel-capable algorithms, with and without HCD, across worker counts.
func TestParallelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for i := 0; i < trials; i++ {
		p := randomSolverProgram(rng)
		if p.Validate() != nil {
			continue
		}
		want := referenceSolve(p)
		for _, alg := range []Algorithm{Naive, LCD} {
			for _, hcd := range []bool{false, true} {
				for _, wk := range []int{2, 4, 8} {
					r, err := Solve(p, Options{Algorithm: alg, WithHCD: hcd, Workers: wk})
					if err != nil {
						t.Fatalf("i=%d alg=%v hcd=%v wk=%d: %v", i, alg, hcd, wk, err)
					}
					for v := uint32(0); v < uint32(p.NumVars); v++ {
						got := r.PointsToSlice(v)
						exp := sortedKeys(want[v])
						if len(got) == 0 && len(exp) == 0 {
							continue
						}
						if !reflect.DeepEqual(got, exp) {
							t.Fatalf("i=%d alg=%v hcd=%v wk=%d: pts(v%d)=%v want %v",
								i, alg, hcd, wk, v, got, exp)
						}
					}
				}
			}
		}
	}
}

// TestParallelMatchesSequentialLarge pits Workers ∈ {2, 4, 8} against the
// sequential solver on cycle-rich inputs big enough for sustained message
// traffic and mid-solve collapsing pauses.
func TestParallelMatchesSequentialLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		p := biggerRandomProgram(rng, 300, 1200)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{Naive, LCD} {
			for _, hcd := range []bool{false, true} {
				base, err := Solve(p, Options{Algorithm: alg, WithHCD: hcd})
				if err != nil {
					t.Fatal(err)
				}
				for _, wk := range []int{2, 4, 8} {
					r, err := Solve(p, Options{Algorithm: alg, WithHCD: hcd, Workers: wk})
					if err != nil {
						t.Fatalf("trial=%d alg=%v hcd=%v wk=%d: %v", trial, alg, hcd, wk, err)
					}
					for v := uint32(0); v < uint32(p.NumVars); v++ {
						got, want := r.PointsToSlice(v), base.PointsToSlice(v)
						if len(got) == 0 && len(want) == 0 {
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial=%d alg=%v hcd=%v wk=%d: pts(v%d) = %d elems, want %d",
								trial, alg, hcd, wk, v, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestSolveContextCancellation covers the cooperative-cancellation
// contract: an already-canceled context aborts before solving, a deadline
// in the past aborts promptly, and the error wraps the context's cause so
// errors.Is works. No configuration may return a partial Result.
func TestSolveContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := biggerRandomProgram(rng, 300, 1200)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, wk := range []int{0, 4} {
		r, err := SolveContext(ctx, p, Options{Algorithm: LCD, Workers: wk})
		if r != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("wk=%d: want nil result wrapping context.Canceled, got %v, %v", wk, r, err)
		}
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	r, err := SolveContext(dctx, p, Options{Algorithm: LCD, Workers: 4})
	if r != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want nil result wrapping DeadlineExceeded, got %v, %v", r, err)
	}
}

// TestSolveContextCancelMidSolve cancels from a Progress callback, proving
// the parallel engine observes cancellation mid-solve, not only up front:
// owners unwind whether parked or mid-step, without a partial Result.
func TestSolveContextCancelMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := biggerRandomProgram(rng, 400, 1600)
	for _, wk := range []int{2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		rounds := 0
		r, err := SolveContext(ctx, p, Options{
			Algorithm: LCD,
			Workers:   wk,
			Progress: func(ev ProgressEvent) {
				rounds = ev.Round
				cancel()
			},
		})
		cancel()
		if rounds == 0 {
			// The input converged within one token lap; nothing to check.
			continue
		}
		if r != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("wk=%d: want nil result wrapping context.Canceled, got %v, %v", wk, r, err)
		}
	}
}

// TestProgressEvents checks the callback fires with sane, monotone fields
// under the parallel engine.
func TestProgressEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := biggerRandomProgram(rng, 300, 1200)
	var events []ProgressEvent
	_, err := Solve(p, Options{Algorithm: LCD, WithHCD: true, Workers: 4,
		Progress: func(ev ProgressEvent) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events from a parallel solve")
	}
	for i, ev := range events {
		if ev.Round != i+1 {
			t.Fatalf("event %d has round %d", i, ev.Round)
		}
		if ev.Workers != 4 || ev.WorklistLen < 0 || ev.NodesCollapsed < 0 || ev.Unions < 0 {
			t.Fatalf("bad fields in %+v", ev)
		}
		if i > 0 && (ev.Unions < events[i-1].Unions || ev.NodesCollapsed < events[i-1].NodesCollapsed) {
			t.Fatalf("cumulative counters went backwards: %+v then %+v", events[i-1], ev)
		}
	}
	if last := events[len(events)-1]; last.WorklistLen != 0 {
		t.Fatalf("final round left %d nodes pending", last.WorklistLen)
	}
}

// gatingCase is one row of the parallel-dispatch table shared by
// TestUseParallelGating (the predicate) and TestAsyncUseGating (the
// dispatch inside SolveContext). pts builds the row's set factory for
// element ids in [0, universe).
type gatingCase struct {
	alg     Algorithm
	workers int
	pts     func(universe uint32) pts.Factory
	want    bool
}

var (
	bitmapGating = func(uint32) pts.Factory { return pts.NewBitmapFactory() }
	plainGating  = func(uint32) pts.Factory { return pts.NewPlainBitmapFactory() }
	bddGating    = func(u uint32) pts.Factory { return pts.NewBDDFactory(u, 0) }
)

// gatingCases lists which configurations run the parallel engine: Naive
// or LCD, bitmap-backed sets (pooled or plain), and Workers ≥ 2.
// Everything else solves sequentially.
var gatingCases = []gatingCase{
	{LCD, 0, bitmapGating, false},
	{LCD, 1, bitmapGating, false},
	{LCD, 2, bitmapGating, true},
	{Naive, 8, bitmapGating, true},
	{LCD, 4, plainGating, true},
	{LCD, 8, bddGating, false},
	{HT, 4, bitmapGating, false},
	{PKH, 4, bitmapGating, false},
	{PKW, 4, bitmapGating, false},
}

// TestUseParallelGating pins down useParallel's verdict on every row of
// the gating table.
func TestUseParallelGating(t *testing.T) {
	for _, tc := range gatingCases {
		f := tc.pts(16)
		opts := Options{Algorithm: tc.alg, Workers: tc.workers, Pts: f}
		if got := useParallel(opts); got != tc.want {
			t.Errorf("useParallel(%v, workers=%d, pts=%s) = %v, want %v",
				tc.alg, tc.workers, f.Name(), got, tc.want)
		}
	}
}

// TestParallelWorkersStats checks counters survive the owner-private
// accumulate-then-sum path: a parallel run's Propagations and EdgesAdded
// must be positive on a non-trivial input and the solution identical to
// sequential even when counters differ.
func TestParallelWorkersStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := biggerRandomProgram(rng, 300, 1200)
	seq, err := Solve(p, Options{Algorithm: LCD})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve(p, Options{Algorithm: LCD, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Propagations <= 0 || par.Stats.EdgesAdded <= 0 {
		t.Fatalf("parallel counters not accumulated: %+v", par.Stats)
	}
	for v := uint32(0); v < uint32(p.NumVars); v++ {
		a, b := par.PointsToSlice(v), seq.PointsToSlice(v)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pts(v%d) differs between sequential and parallel", v)
		}
	}
}
