package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/hcd"
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

// mergedPointeeProgram builds a program whose dereferenced node p points to
// the members of a copy cycle, so that many of p's pointees share one
// representative once the cycle collapses (HCD pre-unites it offline, LCD
// finds it online). Members come in three spans: 1 and 3, for which the
// target v+k of k = ParamOffset+1 is invalid, and 4, for which v+k is the
// member's second parameter. Half of those parameter slots form a second
// copy cycle, so at offset k some distinct pointees reach one target
// representative and others reach distinct ones. Every id just past a
// member's block holds a decoy object, which a load through an invalid
// target would carry into its destination. p carries loads and stores at
// offset 0 and k, plus a load at RetOffset, so one node resolves three
// distinct offsets.
func mergedPointeeProgram() (prog *constraint.Program, members []uint32) {
	const k = constraint.ParamOffset + 1
	prog = constraint.NewProgram()
	var slots, decoys []uint32
	for i := 0; i < 24; i++ {
		var m uint32
		switch i % 3 {
		case 0:
			m = prog.AddVar(fmt.Sprintf("m%d", i))
		case 1:
			m = prog.AddFunc(fmt.Sprintf("m%d", i), 1)
		default:
			m = prog.AddFunc(fmt.Sprintf("m%d", i), 2)
			slots = append(slots, m+k)
		}
		members = append(members, m)
		for j := 0; j < k; j++ {
			decoys = append(decoys, prog.AddVar(fmt.Sprintf("decoy%d.%d", i, j)))
		}
	}
	obj := func(name string) uint32 { return prog.AddVar(name) }
	ptr, half, x0, y0, xk, yk, xr := obj("p"), obj("q"), obj("x0"), obj("y0"), obj("xk"), obj("yk"), obj("xr")
	decoy, seed, a, b := obj("decoy"), obj("seed"), obj("a"), obj("b")
	for i, m := range members {
		prog.AddCopy(members[(i+1)%len(members)], m)
		// p gains its pointees over two visits: half directly, half
		// through q.
		if i%2 == 0 {
			prog.AddAddrOf(ptr, m)
		} else {
			prog.AddAddrOf(half, m)
		}
	}
	prog.AddCopy(ptr, half)
	prog.AddAddrOf(members[0], seed)
	for i, sl := range slots {
		prog.AddAddrOf(sl, obj(fmt.Sprintf("c%d", i)))
		if h := len(slots) / 2; i < h {
			prog.AddCopy(slots[(i+1)%h], sl)
		}
	}
	for _, d := range decoys {
		prog.AddAddrOf(d, decoy)
	}
	prog.AddAddrOf(y0, a)
	prog.AddAddrOf(yk, b)
	prog.AddLoad(x0, ptr, 0)
	prog.AddStore(ptr, y0, 0)
	prog.AddLoad(xk, ptr, k)
	prog.AddStore(ptr, yk, k)
	prog.AddLoad(xr, ptr, constraint.RetOffset)
	return prog, members
}

// TestAsyncResolveMergedPointees pins the engine's load/store resolution
// over distinct target representatives on the cases deduplication could
// get wrong: many pointees of a dereferenced node merged into one
// representative, offset targets that differ across the merged members,
// and members whose v+k is invalid. Every owner count must reproduce the
// sequential solution, and the sequential solution the reference.
func TestAsyncResolveMergedPointees(t *testing.T) {
	p, members := mergedPointeeProgram()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The premise: HCD pre-unites the member cycle before solving starts.
	pre := map[uint32]bool{}
	for _, pu := range hcd.Analyze(p).PreUnions {
		pre[pu[0]], pre[pu[1]] = true, true
	}
	for _, m := range members {
		if !pre[m] {
			t.Fatalf("member v%d is not pre-united by HCD", m)
		}
	}
	want := referenceSolve(p)
	for _, alg := range []Algorithm{Naive, LCD} {
		for _, withHCD := range []bool{false, true} {
			seq, err := Solve(p, Options{Algorithm: alg, WithHCD: withHCD})
			if err != nil {
				t.Fatal(err)
			}
			for v := uint32(0); v < uint32(p.NumVars); v++ {
				got, exp := seq.PointsToSlice(v), sortedKeys(want[v])
				if len(got) != 0 || len(exp) != 0 {
					if !reflect.DeepEqual(got, exp) {
						t.Fatalf("%v hcd=%v sequential: pts(%s) = %v, want %v",
							alg, withHCD, p.NameOf(v), got, exp)
					}
				}
			}
			for _, wk := range []int{2, 3, 4} {
				r, err := Solve(p, Options{Algorithm: alg, WithHCD: withHCD, Workers: wk})
				if err != nil {
					t.Fatalf("%v hcd=%v wk=%d: %v", alg, withHCD, wk, err)
				}
				for v := uint32(0); v < uint32(p.NumVars); v++ {
					got, exp := r.PointsToSlice(v), seq.PointsToSlice(v)
					if len(got) == 0 && len(exp) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, exp) {
						t.Fatalf("%v hcd=%v wk=%d: pts(%s) = %v, want %v",
							alg, withHCD, wk, p.NameOf(v), got, exp)
					}
				}
			}
		}
	}
}
