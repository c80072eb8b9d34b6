package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"antgrass/internal/pts"
)

// TestAsyncMatchesOracle cross-checks the asynchronous owner-sharded
// engine against the map-based reference fixpoint on random programs at
// owner counts that are not powers of two. owner(n) = n mod owners, so
// three, five and seven owners partition the nodes unevenly and run an
// odd-length token ring — shapes the 2/4/8 sweep of
// TestParallelMatchesOracle never produces.
func TestAsyncMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for i := 0; i < trials; i++ {
		p := randomSolverProgram(rng)
		if p.Validate() != nil {
			continue
		}
		want := referenceSolve(p)
		for _, alg := range []Algorithm{Naive, LCD} {
			for _, hcd := range []bool{false, true} {
				for _, wk := range []int{3, 5, 7} {
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

// TestAsyncMatchesSequentialLarge pits the engine over plain (unpooled)
// bitmap sets against the sequential solver on cycle-rich inputs big
// enough for sustained message traffic and mid-solve pauses, across
// owner counts. The plain factory is the other set backing useParallel
// admits; TestParallelMatchesSequentialLarge covers the pooled default.
func TestAsyncMatchesSequentialLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
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
					r, err := Solve(p, Options{Algorithm: alg, WithHCD: hcd, Workers: wk,
						Pts: pts.NewPlainBitmapFactory()})
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

// TestAsyncUseGating checks the dispatch inside SolveContext against the
// gating table: every configuration useParallel admits must actually run
// the async engine, and every other one must solve sequentially. The
// engine is observed through its lap-boundary Progress events, the only
// ones that carry a nonzero Workers; Stats.Workers must agree.
func TestAsyncUseGating(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := biggerRandomProgram(rng, 300, 1200)
	for _, tc := range gatingCases {
		f := tc.pts(uint32(p.NumVars))
		laps := 0
		r, err := Solve(p, Options{Algorithm: tc.alg, Workers: tc.workers, Pts: f,
			Progress: func(ev ProgressEvent) {
				if ev.Workers != 0 {
					laps++
				}
			}})
		if err != nil {
			t.Fatalf("%v workers=%d pts=%s: %v", tc.alg, tc.workers, f.Name(), err)
		}
		if ran := laps > 0; ran != tc.want {
			t.Errorf("%v workers=%d pts=%s: async engine ran = %v, want %v",
				tc.alg, tc.workers, f.Name(), ran, tc.want)
		}
		want := 0
		if tc.want {
			want = tc.workers
		}
		if r.Stats.Workers != want {
			t.Errorf("%v workers=%d pts=%s: Stats.Workers = %d, want %d",
				tc.alg, tc.workers, f.Name(), r.Stats.Workers, want)
		}
	}
}

// TestAsyncCancellation covers the cooperative-cancellation contract for
// the parallel engine at higher owner counts: an already-canceled context
// aborts before solving, and a cancel fired from the lap-boundary
// Progress callback aborts a running ring — owners unwind through stopCh,
// parked or mid-step — without a partial Result.
func TestAsyncCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := biggerRandomProgram(rng, 300, 1200)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := SolveContext(ctx, p, Options{Algorithm: LCD, Workers: 8})
	if r != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want nil result wrapping context.Canceled, got %v, %v", r, err)
	}

	for _, wk := range []int{4, 8} {
		mctx, mcancel := context.WithCancel(context.Background())
		laps := 0
		r, err := SolveContext(mctx, p, Options{
			Algorithm: LCD,
			Workers:   wk,
			Progress: func(ev ProgressEvent) {
				laps = ev.Round
				mcancel()
			},
		})
		mcancel()
		if laps == 0 {
			continue // converged before the first lap; nothing to check
		}
		if r != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("wk=%d: want nil result wrapping context.Canceled, got %v, %v", wk, r, err)
		}
	}
}

// TestAsyncStats checks the engine's accounting reaches the Result: the
// owner-private Propagations/EdgesAdded counters must be folded in, Rounds
// must report token laps, Workers the owner count, and the solution must
// match the sequential solver even though the counters are
// schedule-dependent.
func TestAsyncStats(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := biggerRandomProgram(rng, 300, 1200)
	seq, err := Solve(p, Options{Algorithm: LCD})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve(p, Options{Algorithm: LCD, WithHCD: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Propagations <= 0 || par.Stats.EdgesAdded <= 0 {
		t.Fatalf("owner counters not accumulated: %+v", par.Stats)
	}
	if par.Stats.Rounds <= 0 {
		t.Fatalf("parallel run reported no token laps: %+v", par.Stats)
	}
	if par.Stats.Workers != 4 {
		t.Fatalf("Stats.Workers = %d, want 4", par.Stats.Workers)
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
