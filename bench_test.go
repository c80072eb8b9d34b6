// Benchmarks mirroring the paper's evaluation artifacts: one testing.B
// target per table and figure (§5). These run miniature versions of the
// experiments (scale 0.02 of the paper's constraint counts) so that
// `go test -bench=.` stays laptop-friendly; cmd/antbench runs the same
// matrix at arbitrary scale and prints the full tables.
package antgrass

import (
	"context"
	"fmt"
	"testing"
)

// benchScale is the workload scale used by the testing.B targets.
const benchScale = 0.02

// benchSubset is the benchmark subset used for per-algorithm timing
// targets (smallest, densest, largest).
var benchSubset = []string{"emacs", "wine", "linux"}

type benchAlgo struct {
	name string
	opts Options
}

var benchMatrix = []benchAlgo{
	{"ht", Options{Algorithm: HT}},
	{"pkh", Options{Algorithm: PKH}},
	{"blq", Options{Algorithm: BLQ}},
	{"lcd", Options{Algorithm: LCD}},
	{"hcd", Options{Algorithm: Naive, HCD: true}},
	{"ht+hcd", Options{Algorithm: HT, HCD: true}},
	{"pkh+hcd", Options{Algorithm: PKH, HCD: true}},
	{"blq+hcd", Options{Algorithm: BLQ, HCD: true}},
	{"lcd+hcd", Options{Algorithm: LCD, HCD: true}},
}

var benchNoBLQ = []benchAlgo{
	{"ht", Options{Algorithm: HT, Pts: BDD}},
	{"pkh", Options{Algorithm: PKH, Pts: BDD}},
	{"lcd", Options{Algorithm: LCD, Pts: BDD}},
	{"hcd", Options{Algorithm: Naive, HCD: true, Pts: BDD}},
	{"ht+hcd", Options{Algorithm: HT, HCD: true, Pts: BDD}},
	{"pkh+hcd", Options{Algorithm: PKH, HCD: true, Pts: BDD}},
	{"lcd+hcd", Options{Algorithm: LCD, HCD: true, Pts: BDD}},
}

func workload(b *testing.B, name string) *Program {
	b.Helper()
	p, err := Workload(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchSolve(b *testing.B, p *Program, o Options) *Result {
	b.Helper()
	r, err := Solve(context.Background(), p, o)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// solveScale is the workload scale used by the BenchmarkSolve* targets:
// large enough (0.2 of the paper's constraint counts) that allocation
// behavior and set-operation cost dominate, small enough to iterate.
const solveScale = 0.2

// BenchmarkSolve measures end-to-end solves with bitmap points-to sets at
// scale 0.2, reporting allocations: these are the targets the points-to
// memory engine (element pooling, copy-on-write sharing, word-level
// kernels) is tuned against. ghostscript covers the algorithm matrix;
// wine — the paper's most expensive bitmap workload — covers the headline
// LCD+HCD configuration.
func BenchmarkSolve(b *testing.B) {
	cases := []struct {
		bench string
		algo  benchAlgo
	}{
		{"ghostscript", benchAlgo{"naive", Options{Algorithm: Naive}}},
		{"ghostscript", benchAlgo{"lcd", Options{Algorithm: LCD}}},
		{"ghostscript", benchAlgo{"lcd+hcd", Options{Algorithm: LCD, HCD: true}}},
		{"ghostscript", benchAlgo{"lcd+diff", Options{Algorithm: LCD, DiffProp: true}}},
		{"ghostscript", benchAlgo{"ht+hcd", Options{Algorithm: HT, HCD: true}}},
		{"ghostscript", benchAlgo{"pkh+hcd", Options{Algorithm: PKH, HCD: true}}},
		{"wine", benchAlgo{"lcd+hcd", Options{Algorithm: LCD, HCD: true}}},
	}
	progs := map[string]*Program{}
	for _, c := range cases {
		if progs[c.bench] == nil {
			p, err := Workload(c.bench, solveScale)
			if err != nil {
				b.Fatal(err)
			}
			progs[c.bench] = p
		}
		b.Run(fmt.Sprintf("%s/%s", c.algo.name, c.bench), func(b *testing.B) {
			p := progs[c.bench]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSolve(b, p, c.algo.opts)
			}
		})
	}
}

// BenchmarkSolveParallel sweeps the parallel engine's worker count on
// ghostscript at scale 0.2 (w1 is the sequential baseline). One
// sub-benchmark per worker count keeps the sweep diffable with
// benchstat.
func BenchmarkSolveParallel(b *testing.B) {
	p, err := Workload("ghostscript", solveScale)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lcd+hcd/ghostscript/w%d", w), func(b *testing.B) {
			opts := Options{Algorithm: LCD, HCD: true, Workers: w}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSolve(b, p, opts)
			}
		})
	}
}

// BenchmarkPublish measures publishing a solved program as a Snapshot,
// LCD+HCD at scale 0.2, in the two ways a Snapshot holds its sets: frozen
// (copied out of the solver's pools into one slab, as Solve and
// non-resumable sessions publish) and shared (copy-on-write shares of the
// solver's backings, as a resumable session publishes).
func BenchmarkPublish(b *testing.B) {
	for _, name := range []string{"wine", "linux"} {
		p, err := Workload(name, solveScale)
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := solveOnce(context.Background(), p, Options{Algorithm: LCD, HCD: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name   string
			freeze bool
		}{{"frozen", true}, {"shared", false}} {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					newSnapshot(1, res, mode.freeze)
				}
			})
		}
	}
}

// BenchmarkTable2Workloads measures workload generation plus OVS reduction
// for each Table 2 profile and reports the reduction percentage the paper
// quotes (60-77%).
func BenchmarkTable2Workloads(b *testing.B) {
	for _, w := range Workloads() {
		name := w.Name
		b.Run(name, func(b *testing.B) {
			var reduction float64
			for i := 0; i < b.N; i++ {
				p, err := Workload(name, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				r := Reduce(p)
				reduction = r.ReductionPercent()
			}
			b.ReportMetric(reduction, "reduction%")
		})
	}
}

// BenchmarkTable3 times every algorithm with bitmap points-to sets
// (Table 3's matrix) on the benchmark subset.
func BenchmarkTable3(b *testing.B) {
	for _, a := range benchMatrix {
		for _, name := range benchSubset {
			b.Run(fmt.Sprintf("%s/%s", a.name, name), func(b *testing.B) {
				p := workload(b, name)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSolve(b, p, a.opts)
				}
			})
		}
	}
}

// BenchmarkTable4 reports the analytic memory footprint (MB) of each
// algorithm with bitmap sets, Table 4's quantity.
func BenchmarkTable4(b *testing.B) {
	for _, a := range benchMatrix {
		b.Run(a.name, func(b *testing.B) {
			p := workload(b, "linux")
			var mem float64
			for i := 0; i < b.N; i++ {
				r := benchSolve(b, p, a.opts)
				mem = float64(r.Stats().MemBytes) / (1 << 20)
			}
			b.ReportMetric(mem, "MB")
		})
	}
}

// BenchmarkTable5 times the BDD points-to representation (Table 5).
func BenchmarkTable5(b *testing.B) {
	for _, a := range benchNoBLQ {
		for _, name := range benchSubset {
			b.Run(fmt.Sprintf("%s/%s", a.name, name), func(b *testing.B) {
				p := workload(b, name)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSolve(b, p, a.opts)
				}
			})
		}
	}
}

// BenchmarkTable6 reports memory with BDD points-to sets (Table 6).
func BenchmarkTable6(b *testing.B) {
	for _, a := range benchNoBLQ {
		b.Run(a.name, func(b *testing.B) {
			p := workload(b, "linux")
			var mem float64
			for i := 0; i < b.N; i++ {
				r := benchSolve(b, p, a.opts)
				mem = float64(r.Stats().MemBytes) / (1 << 20)
			}
			b.ReportMetric(mem, "MB")
		})
	}
}

// BenchmarkFigure6 runs the headline comparison (LCD+HCD vs HT, PKH, BLQ)
// and reports LCD+HCD's speedup over each (the paper's 3.2x / 6.4x /
// 20.6x numbers).
func BenchmarkFigure6(b *testing.B) {
	p := workload(b, "linux")
	for _, rival := range []benchAlgo{
		{"vs-ht", Options{Algorithm: HT}},
		{"vs-pkh", Options{Algorithm: PKH}},
		{"vs-blq", Options{Algorithm: BLQ}},
	} {
		b.Run(rival.name, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				ours := benchSolve(b, p, Options{Algorithm: LCD, HCD: true})
				theirs := benchSolve(b, p, rival.opts)
				speedup = theirs.Stats().SolveDuration.Seconds() / ours.Stats().SolveDuration.Seconds()
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkFigure7 reports each algorithm's time normalized to LCD.
func BenchmarkFigure7(b *testing.B) {
	p := workload(b, "wine")
	for _, a := range []benchAlgo{
		{"ht", Options{Algorithm: HT}},
		{"pkh", Options{Algorithm: PKH}},
		{"blq", Options{Algorithm: BLQ}},
		{"hcd", Options{Algorithm: Naive, HCD: true}},
	} {
		b.Run(a.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				lcd := benchSolve(b, p, Options{Algorithm: LCD})
				other := benchSolve(b, p, a.opts)
				ratio = other.Stats().SolveDuration.Seconds() / lcd.Stats().SolveDuration.Seconds()
			}
			b.ReportMetric(ratio, "vs-lcd")
		})
	}
}

// BenchmarkFigure8 reports the speedup HCD gives each algorithm
// (time(algo) / time(algo+hcd)).
func BenchmarkFigure8(b *testing.B) {
	p := workload(b, "linux")
	for _, a := range []struct {
		name           string
		plain, boosted Options
	}{
		{"ht", Options{Algorithm: HT}, Options{Algorithm: HT, HCD: true}},
		{"pkh", Options{Algorithm: PKH}, Options{Algorithm: PKH, HCD: true}},
		{"blq", Options{Algorithm: BLQ}, Options{Algorithm: BLQ, HCD: true}},
		{"lcd", Options{Algorithm: LCD}, Options{Algorithm: LCD, HCD: true}},
	} {
		b.Run(a.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				plain := benchSolve(b, p, a.plain)
				boosted := benchSolve(b, p, a.boosted)
				ratio = plain.Stats().SolveDuration.Seconds() / boosted.Stats().SolveDuration.Seconds()
			}
			b.ReportMetric(ratio, "hcd-speedup")
		})
	}
}

// BenchmarkFigure9 reports BDD-vs-bitmap time per algorithm (paper: BDDs
// average 2x slower).
func BenchmarkFigure9(b *testing.B) {
	p := workload(b, "wine")
	for _, alg := range []Algorithm{HT, PKH, LCD} {
		b.Run(string(alg), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				bm := benchSolve(b, p, Options{Algorithm: alg})
				bd := benchSolve(b, p, Options{Algorithm: alg, Pts: BDD})
				ratio = bd.Stats().SolveDuration.Seconds() / bm.Stats().SolveDuration.Seconds()
			}
			b.ReportMetric(ratio, "bdd/bitmap")
		})
	}
}

// BenchmarkFigure10 reports bitmap-vs-BDD memory per algorithm (paper:
// bitmaps average 5.5x bigger).
func BenchmarkFigure10(b *testing.B) {
	p := workload(b, "wine")
	for _, alg := range []Algorithm{HT, PKH, LCD} {
		b.Run(string(alg), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				bm := benchSolve(b, p, Options{Algorithm: alg})
				bd := benchSolve(b, p, Options{Algorithm: alg, Pts: BDD})
				ratio = float64(bm.Stats().MemBytes) / float64(bd.Stats().MemBytes)
			}
			b.ReportMetric(ratio, "bitmap/bdd-mem")
		})
	}
}

// BenchmarkStats53 reports the §5.3 cost counters for the main algorithms
// as custom metrics (nodes collapsed / searched / propagations).
func BenchmarkStats53(b *testing.B) {
	p := workload(b, "linux")
	for _, a := range benchMatrix {
		b.Run(a.name, func(b *testing.B) {
			var s Stats
			for i := 0; i < b.N; i++ {
				s = benchSolve(b, p, a.opts).Stats()
			}
			b.ReportMetric(float64(s.NodesCollapsed), "collapsed")
			b.ReportMetric(float64(s.NodesSearched), "searched")
			b.ReportMetric(float64(s.Propagations), "propagations")
		})
	}
}

// BenchmarkOVS measures the pre-processing pass on the largest profile.
func BenchmarkOVS(b *testing.B) {
	p := workload(b, "linux")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reduce(p)
	}
}

// BenchmarkCompileC measures the C front-end on a representative source.
func BenchmarkCompileC(b *testing.B) {
	src := `
void *malloc(unsigned long n);
struct node { struct node *next; int *payload; };
struct node *head;
int pool[64];
void push(int *p) {
	struct node *n = malloc(sizeof(struct node));
	n->payload = p;
	n->next = head;
	head = n;
}
int *sum(void) {
	struct node *it;
	int *acc = pool;
	for (it = head; it; it = it->next) acc = it->payload;
	return acc;
}
int (*op)(int);
int twice(int x) { return x + x; }
int apply(void) { op = twice; return op(2); }
void main(void) { push(pool); sum(); apply(); }
`
	for i := 0; i < b.N; i++ {
		if _, err := CompileC(src, CGenOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
