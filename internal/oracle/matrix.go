package oracle

import (
	"fmt"

	"antgrass/internal/blq"
	"antgrass/internal/constraint"
	"antgrass/internal/core"
	"antgrass/internal/hcd"
	"antgrass/internal/hvn"
	"antgrass/internal/ovs"
	"antgrass/internal/pts"
)

// Solution is the solver-side view the oracle compares against the
// reference: a solved points-to relation queryable per original variable.
// *core.Result (returned by every solver in the tree) satisfies it.
type Solution interface {
	PointsToSlice(v uint32) []uint32
}

// Config is one entry of the differential-testing matrix: a human-readable
// name (stable — it appears in divergence reports, shrunk test cases and
// CI logs) and a function that solves a program under that configuration.
type Config struct {
	Name  string
	Solve func(p *constraint.Program) (Solution, error)
}

// matrixBDDPool is the initial BDD node-pool size used by matrix
// configurations. The pool grows on demand, so this only needs to cover
// the small programs differential testing runs on; the production default
// (blq.DefaultPoolNodes) would allocate megabytes per configuration per
// checked program.
const matrixBDDPool = 1 << 12

// matrixWorkers are the parallel worker counts exercised by the matrix.
// The parallel engine only engages for Naive/LCD with bitmap sets; the
// counts bracket the interesting schedules (two owners trading every
// cross-owner delta, moderate fan-out, and more owners than a tiny
// program keeps busy, so idle owners park and the token ring passes
// through passive owners).
var matrixWorkers = []int{2, 4, 8}

// Matrix returns the full registered configuration set:
//
//   - all five core algorithms × {bitmap, BDD} points-to sets × {+hcd, −hcd};
//   - the five algorithms (±hcd) again with the plain bitmap factory —
//     pooling, copy-on-write sharing and dedup disabled — so the memory
//     engine is differentially tested against its own ablation;
//   - parallel worker counts for the configurations the parallel engine
//     accepts (Naive and LCD over bitmaps), with and without HCD, plus
//     one parallel run over the plain factory;
//   - difference propagation for the basic worklist solvers;
//   - the BLQ relational solver, with and without HCD;
//   - the offline pre-pass tiers (HVN, HU, HVN+HU, HVN+HU+OVS) over
//     Naive/LCD with and without HCD, plus HVN+HU crossed with the
//     parallel worker counts — every tier must be solution-preserving,
//     so these cells pin the value-numbering equivalences against the
//     unreduced configurations;
//   - the operation-memoization tier (+memo): Naive/LCD ±hcd, difference
//     propagation, the plain-factory fallback and the HVN+HU ladder, all
//     sequential (the only solvers Options.Memo serves) — memoization is
//     a cache keyed on canonical set ids, so these cells pin it
//     bit-identical to plain solving.
//
// Every configuration must compute the identical least fixpoint; Check
// runs them in this order and reports the first that does not. To register
// a new solver configuration, append it here and it is automatically
// covered by Check, the corpus tests, and the fuzz targets (see
// docs/CORRECTNESS.md).
func Matrix() []Config {
	algs := []core.Algorithm{core.Naive, core.LCD, core.HT, core.PKH, core.PKW}
	var out []Config
	for _, alg := range algs {
		for _, repr := range []string{"bitmap", "bdd"} {
			for _, withHCD := range []bool{false, true} {
				out = append(out, coreConfig(alg, repr, withHCD, 0, false))
			}
		}
	}
	for _, alg := range algs {
		for _, withHCD := range []bool{false, true} {
			out = append(out, coreConfig(alg, "bitmap-plain", withHCD, 0, false))
		}
	}
	for _, alg := range []core.Algorithm{core.Naive, core.LCD} {
		for _, withHCD := range []bool{false, true} {
			for _, w := range matrixWorkers {
				out = append(out, coreConfig(alg, "bitmap", withHCD, w, false))
			}
			out = append(out, coreConfig(alg, "bitmap", withHCD, 0, true))
		}
	}
	out = append(out, coreConfig(core.LCD, "bitmap-plain", true, 2, false))
	out = append(out, blqConfig(false), blqConfig(true))
	for _, tier := range offlineTiers {
		for _, alg := range []core.Algorithm{core.Naive, core.LCD} {
			for _, withHCD := range []bool{false, true} {
				out = append(out, offlineConfig(tier, alg, withHCD, 0))
			}
		}
	}
	huTier := offlineTier{name: "hvn+hu", hvn: true, hu: true}
	for _, withHCD := range []bool{false, true} {
		for _, w := range matrixWorkers {
			out = append(out, offlineConfig(huTier, core.LCD, withHCD, w))
		}
	}
	// Operation-memoization tier (+memo): the sequential cells again with
	// the union/diff/offset-deref memo engine switched on. Memoization is
	// a pure cache over canonical set ids, so every +memo cell must stay
	// bit-identical to its plain counterpart: Naive/LCD ±hcd, difference
	// propagation, the plain-factory fallback (sets cannot be interned, so
	// the table must degrade gracefully) and the HVN+HU offline ladder.
	for _, alg := range []core.Algorithm{core.Naive, core.LCD} {
		for _, withHCD := range []bool{false, true} {
			out = append(out, coreConfigMemo(alg, "bitmap", withHCD, false))
		}
	}
	out = append(out, coreConfigMemo(core.LCD, "bitmap", true, true))
	out = append(out, coreConfigMemo(core.LCD, "bitmap-plain", true, false))
	for _, withHCD := range []bool{false, true} {
		out = append(out, offlineConfigMemo(huTier, core.LCD, withHCD))
	}
	return out
}

// offlineTier names one composition of the offline reduction passes.
// Each pass runs on the previous pass's reduced system, exactly as the
// facade's solve pipeline stacks them.
type offlineTier struct {
	name         string
	hvn, hu, ovs bool
}

// offlineTiers are the pre-pass compositions the matrix crosses with the
// online algorithms: each single pass, the HVN+HU ladder, and the full
// stack in front of OVS.
var offlineTiers = []offlineTier{
	{name: "hvn", hvn: true},
	{name: "hu", hu: true},
	{name: "hvn+hu", hvn: true, hu: true},
	{name: "hvn+hu+ovs", hvn: true, hu: true, ovs: true},
}

// offlineConfig builds a matrix entry that runs the tier's offline passes
// and feeds their accumulated pre-unions to the online solver through the
// HCD table, mirroring the facade pipeline. Queries stay on original
// variable ids because the solver applies the unions before constraints.
func offlineConfig(tier offlineTier, alg core.Algorithm, withHCD bool, workers int) Config {
	return offlineConfigFull(tier, alg, withHCD, workers, false)
}

// offlineConfigMemo is the sequential offlineConfig with operation
// memoization switched on for the online solve that follows the
// reduction passes.
func offlineConfigMemo(tier offlineTier, alg core.Algorithm, withHCD bool) Config {
	return offlineConfigFull(tier, alg, withHCD, 0, true)
}

func offlineConfigFull(tier offlineTier, alg core.Algorithm, withHCD bool, workers int, memoize bool) Config {
	name := alg.String() + "+" + tier.name
	if withHCD {
		name += "+hcd"
	}
	if memoize {
		name += "+memo"
	}
	name += "/bitmap"
	if workers > 0 {
		name += fmt.Sprintf("/w%d", workers)
	}
	return Config{
		Name: name,
		Solve: func(p *constraint.Program) (Solution, error) {
			prog := p
			var pre [][2]uint32
			if tier.hvn {
				r := hvn.Reduce(prog, false)
				prog = r.Reduced
				pre = append(pre, r.PreUnions...)
			}
			if tier.hu {
				r := hvn.Reduce(prog, true)
				prog = r.Reduced
				pre = append(pre, r.PreUnions...)
			}
			if tier.ovs {
				r := ovs.Reduce(prog)
				prog = r.Reduced
				pre = append(pre, r.PreUnions...)
			}
			table := &hcd.Result{}
			if withHCD {
				table = hcd.Analyze(prog)
			}
			table.PreUnions = append(table.PreUnions, pre...)
			return core.Solve(prog, core.Options{
				Algorithm: alg,
				WithHCD:   true,
				HCDTable:  table,
				Workers:   workers,
				Memo:      memoize,
			})
		},
	}
}

func coreConfig(alg core.Algorithm, repr string, withHCD bool, workers int, diff bool) Config {
	return coreConfigFull(alg, repr, withHCD, workers, diff, false)
}

// coreConfigMemo is the sequential coreConfig with operation memoization
// switched on: same solution, with repeated unions/diffs/offset-derefs
// answered from the memo table (Options.Memo). Cells over the plain
// bitmap factory exercise the cannot-intern fallback path.
func coreConfigMemo(alg core.Algorithm, repr string, withHCD bool, diff bool) Config {
	return coreConfigFull(alg, repr, withHCD, 0, diff, true)
}

func coreConfigFull(alg core.Algorithm, repr string, withHCD bool, workers int, diff, memoize bool) Config {
	name := alg.String()
	if withHCD {
		name += "+hcd"
	}
	if diff {
		name += "+diff"
	}
	if memoize {
		name += "+memo"
	}
	name += "/" + repr
	if workers > 0 {
		name += fmt.Sprintf("/w%d", workers)
	}
	return Config{
		Name: name,
		Solve: func(p *constraint.Program) (Solution, error) {
			opts := core.Options{
				Algorithm: alg,
				WithHCD:   withHCD,
				Workers:   workers,
				DiffProp:  diff,
				Memo:      memoize,
			}
			switch repr {
			case "bdd":
				opts.Pts = pts.NewBDDFactory(uint32(p.NumVars), matrixBDDPool)
			case "bitmap-plain":
				opts.Pts = pts.NewPlainBitmapFactory()
			}
			return core.Solve(p, opts)
		},
	}
}

func blqConfig(withHCD bool) Config {
	name := "blq"
	if withHCD {
		name += "+hcd"
	}
	return Config{
		Name: name,
		Solve: func(p *constraint.Program) (Solution, error) {
			return blq.Solve(p, core.Options{
				WithHCD:      withHCD,
				BDDPoolNodes: matrixBDDPool,
			})
		},
	}
}
