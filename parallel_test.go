package antgrass_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"antgrass"
)

// TestParallelWorkloadsIdentical is the parallel engine's acceptance test:
// on every synthetic workload, for Naive and LCD, with and without HCD and
// OVS, Workers ∈ {1, 2, 4, 8} must produce a points-to solution
// bit-identical to the sequential solver's. In -short mode the scale drops
// and the slowest (Naive, no-cycle-detection) configurations are skipped.
func TestParallelWorkloadsIdentical(t *testing.T) {
	scale := 0.1
	if testing.Short() {
		scale = 0.03
	}
	for _, w := range antgrass.Workloads() {
		name := w.Name
		p, err := antgrass.Workload(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []antgrass.Algorithm{antgrass.Naive, antgrass.LCD} {
			for _, hcd := range []bool{false, true} {
				for _, ovs := range []bool{false, true} {
					if testing.Short() && alg == antgrass.Naive && !hcd {
						continue
					}
					opts := antgrass.Options{Algorithm: alg, HCD: hcd, OVS: ovs}
					label := fmt.Sprintf("%s/%s hcd=%v ovs=%v", name, alg, hcd, ovs)
					seq, err := antgrass.Solve(context.Background(), p, opts)
					if err != nil {
						t.Fatalf("%s: sequential: %v", label, err)
					}
					for _, wk := range []int{1, 2, 4, 8} {
						opts.Workers = wk
						par, err := antgrass.Solve(context.Background(), p, opts)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", label, wk, err)
						}
						for v := 0; v < p.NumVars; v++ {
							a := seq.PointsTo(uint32(v))
							b := par.PointsTo(uint32(v))
							if len(a) != len(b) {
								t.Fatalf("%s workers=%d: |pts(v%d)| = %d, want %d",
									label, wk, v, len(b), len(a))
							}
							for i := range a {
								if a[i] != b[i] {
									t.Fatalf("%s workers=%d: pts(v%d)[%d] = %d, want %d",
										label, wk, v, i, b[i], a[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSolveContextDeadlineMidSolve aborts a long solve with a deadline that
// expires mid-run: the solver must return promptly with an error wrapping
// context.DeadlineExceeded and no partial result.
func TestSolveContextDeadlineMidSolve(t *testing.T) {
	p, err := antgrass.Workload("wine", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, wk := range []int{0, 4} {
		// Sequential wine/Naive takes seconds; 30ms lands mid-solve.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		start := time.Now()
		r, err := antgrass.Solve(ctx, p, antgrass.Options{Algorithm: antgrass.Naive, Workers: wk})
		elapsed := time.Since(start)
		cancel()
		if r != nil {
			t.Fatalf("workers=%d: got a partial result after cancellation", wk)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: error %v does not wrap DeadlineExceeded", wk, err)
		}
		// "Promptly" = well under the multi-second full solve. Owners check
		// the context every few thousand pops, so leave slack for slow
		// machines.
		if elapsed > 5*time.Second {
			t.Fatalf("workers=%d: cancellation took %v", wk, elapsed)
		}
	}
}

// TestProgressCallbackFacade checks the public Progress option reaches the
// solver and reports a drained worklist at the end.
func TestProgressCallbackFacade(t *testing.T) {
	p, err := antgrass.Workload("ghostscript", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var events []antgrass.ProgressEvent
	_, err = antgrass.Solve(context.Background(), p, antgrass.Options{
		Algorithm: antgrass.LCD,
		Workers:   4,
		Progress:  func(ev antgrass.ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	if last := events[len(events)-1]; last.WorklistLen != 0 {
		t.Fatalf("final event has %d pending nodes", last.WorklistLen)
	}
}
