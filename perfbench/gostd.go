package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"antgrass"
)

// goWorkload is go-stdlib: the default antgo path over the pinned
// standard-library packages. One op compiles the packages, solves with
// the full offline stack, counts every variable's points-to set, and
// runs the call-graph and MOD/REF clients.
type goWorkload struct {
	ops      []float64
	peaks    []float64            // peak RSS per op, MB
	parts    map[string][]float64 // seconds per op by stage
	digests  []string
	census   []int
	edges    []int
	warnings []int
	errs     int
	sizes    map[string]int // program size before and after each offline tier

	// The last op's unit and result, held through live_heap_mb.
	unit   *antgrass.Unit
	res    *antgrass.Result
	layers layerSamples
}

func goOptions(m *antgrass.Metrics) antgrass.Options {
	return antgrass.Options{Algorithm: antgrass.LCD, HCD: true, HVN: true, HU: true, OVS: true, Metrics: m}
}

// programDigest hashes a program's constraint-file text.
func programDigest(p *antgrass.Program) string {
	var b bytes.Buffer
	if err := antgrass.WriteProgram(&b, p); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return sha(b.Bytes())
}

// setup compiles the packages, pins the compiled program against the
// digest recorded for this toolchain, and runs the rest of the path once.
func (w *goWorkload) setup(h *harness) error {
	unit, err := antgrass.CompileGo(antgrass.GoOptions{Packages: stdlibPackages})
	if err != nil {
		return err
	}
	d := programDigest(unit.Prog)
	if rec, ok := h.digests.GoStdlib[runtime.Version()]; ok && rec.Input != d {
		return fmt.Errorf("input drift: go-stdlib program under %s has digest %s, recorded %s", runtime.Version(), d, rec.Input)
	}
	res, err := antgrass.Solve(h.ctx, unit.Prog, goOptions(nil))
	if err != nil {
		return err
	}
	census(unit, res)
	antgrass.CallGraph(unit, res)
	antgrass.ComputeModRef(unit, res, false)
	return nil
}

// census sums |pts(v)| over every variable, one PointsToLen query each.
func census(u *antgrass.Unit, r *antgrass.Result) int {
	n := 0
	for v := 0; v < u.Prog.NumVars; v++ {
		n += r.PointsToLen(antgrass.VarID(v))
	}
	return n
}

// timed runs f inside a span and returns its wall time.
func timed(h *harness, name string, mem bool, f func()) (time.Duration, int) {
	id := h.tr.begin(name, mem)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	h.tr.end(id)
	return d, id
}

func (w *goWorkload) run(h *harness) {
	w.parts = map[string][]float64{}
	w.layers = layerSamples{}
	deadline := time.Now().Add(h.seconds)
	for op := 0; op == 0 || time.Now().Before(deadline); op++ {
		h.tr.setOp(op)
		h.attempted++
		// Each op starts from a heap returned to the OS, as a fresh antgo
		// process would.
		w.release()
		resetPeakRSS(true)
		var m *antgrass.Metrics
		if h.tr != nil {
			m = antgrass.NewMetrics()
		}
		var (
			unit  *antgrass.Unit
			res   *antgrass.Result
			err   error
			n     int
			edges []antgrass.CallEdge
		)
		opSpan := h.tr.begin("op", true)
		t0 := time.Now()
		dCompile, cs := timed(h, "CompileGo", true, func() {
			unit, err = antgrass.CompileGo(antgrass.GoOptions{Packages: stdlibPackages})
		})
		var dSolve, dCensus, dCall, dModRef time.Duration
		ss := -1
		if err == nil {
			dSolve, ss = timed(h, "Solve", false, func() { res, err = antgrass.Solve(h.ctx, unit.Prog, goOptions(m)) })
		}
		if err == nil {
			dCensus, _ = timed(h, "census", false, func() { n = census(unit, res) })
			dCall, _ = timed(h, "CallGraph", false, func() { edges = antgrass.CallGraph(unit, res) })
			dModRef, _ = timed(h, "ComputeModRef", false, func() { antgrass.ComputeModRef(unit, res, false) })
		}
		d := time.Since(t0)
		h.tr.end(opSpan)
		peak := peakRSSMB()
		if err != nil {
			w.errs++
			h.problem("go-stdlib op %d: %v", op, err)
			continue
		}
		w.ops = append(w.ops, d.Seconds())
		w.peaks = append(w.peaks, peak)
		w.parts["compile"] = append(w.parts["compile"], dCompile.Seconds())
		w.parts["solve"] = append(w.parts["solve"], dSolve.Seconds())
		w.parts["clients"] = append(w.parts["clients"], (dCensus + dCall + dModRef).Seconds())
		// Outside the op's time: digest now, compare after the loop.
		w.digests = append(w.digests, solutionDigest(res, unit.Prog.NumVars))
		w.census = append(w.census, n)
		w.edges = append(w.edges, len(edges))
		w.warnings = append(w.warnings, len(unit.Warnings))
		w.sizes = map[string]int{
			"vars": unit.Prog.NumVars, "constraints": len(unit.Prog.Constraints),
			"after_hvn": res.HVNStats.After, "after_hu": res.HUStats.After, "after_ovs": res.OVSStats.After,
		}
		w.unit, w.res = unit, res
		if h.tr != nil {
			s := sums{}
			s["gogen.compile_s"] = dCompile.Seconds()
			s["gogen.alloc_mb"] = float64(h.tr.spans[cs].AllocBytes) / (1 << 20)
			s["gogen.vars"] = float64(w.sizes["vars"])
			s["gogen.constraints"] = float64(w.sizes["constraints"])
			s["offline.constraints_after"] = float64(w.sizes["after_ovs"])
			s.addSolve(m, res.Stats(), h.tr.spans[ss].dur())
			s.finish()
			s["client.census_s"] = dCensus.Seconds()
			s["client.callgraph_s"] = dCall.Seconds()
			s["client.modref_s"] = dModRef.Seconds()
			s["client.call_edges"] = float64(len(edges))
			s.addMem(&h.tr.spans[opSpan])
			w.layers.add(s)
		}
	}
}

func (w *goWorkload) check(h *harness) {
	h.failed += w.errs
	rec, recorded := h.digests.GoStdlib[runtime.Version()]
	for i := range w.digests {
		var why []string
		if recorded {
			if w.digests[i] != rec.Solution {
				why = append(why, "solution differs from the recorded answer")
			}
			if rec.CallEdges != nil && w.edges[i] != *rec.CallEdges {
				why = append(why, fmt.Sprintf("%d call edges, recorded %d", w.edges[i], *rec.CallEdges))
			}
			if rec.Warnings != nil && w.warnings[i] != *rec.Warnings {
				why = append(why, fmt.Sprintf("%d warnings, recorded %d", w.warnings[i], *rec.Warnings))
			}
		} else if w.digests[i] != w.digests[0] || w.edges[i] != w.edges[0] || w.warnings[i] != w.warnings[0] {
			why = append(why, "answer differs from the run's first op")
		}
		if w.census[i] != w.census[0] {
			why = append(why, "points-to census differs from the run's first op")
		}
		if len(why) > 0 {
			h.failed++
			h.problem("go-stdlib op %d: %v", i, why)
		}
	}
	if !recorded && w.res != nil {
		// No recorded answer for this toolchain: certify the last one.
		if err := antgrass.VerifySolution(w.unit.Prog, w.res); err != nil {
			h.failed += len(w.digests)
			h.problem("go-stdlib: %v", err)
		}
	}
}

func (w *goWorkload) release() { w.unit, w.res = nil, nil }

func (w *goWorkload) report(h *harness) {
	h.e2e["analysis_s"] = median(w.ops)
	h.e2e["peak_rss_mb"] = maximum(w.peaks)
	stages := map[string]summary{}
	for k, xs := range w.parts {
		stages[k] = summarize(xs)
	}
	h.info["op_s"] = summarize(w.ops)
	h.info["stage_s"] = stages
	h.info["program"] = w.sizes
	if len(w.edges) > 0 {
		h.info["call_edges"], h.info["warnings"] = w.edges[0], w.warnings[0]
	}
	w.layers.into(h)
}
