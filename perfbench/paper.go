package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"antgrass"
)

// paperWorkload is paper-batch (workers 0) and paper-par2 (workers 2):
// the paper's setting. One op reads one Table 2 program from its
// constraint-file text and solves it with LCD+HCD; a pass is all six.
type paperWorkload struct {
	workers int
	inputs  []synthInput

	passes  []float64                   // seconds per pass
	peaks   []float64                   // peak RSS per pass, MB
	opSec   map[string][]float64        // seconds per op, by program
	digests map[string][]string         // solution digest per op, by program
	errs    map[string]int              // ops that returned an error, by program
	results map[string]*antgrass.Result // the last pass's, held through live_heap_mb
	layers  layerSamples
}

// options sets only what the workload pins: the algorithm, HCD and the
// worker count. Everything else stays at the library's defaults.
func (w *paperWorkload) options(m *antgrass.Metrics) antgrass.Options {
	return antgrass.Options{Algorithm: antgrass.LCD, HCD: true, Workers: w.workers, Metrics: m}
}

// pinSynth fails when a generated input differs from the one recorded for
// its seed.
func pinSynth(h *harness, seed int64, in synthInput) error {
	rec, ok := h.digests.paper(seed, in.name)
	if ok && rec.Input != in.digest {
		return fmt.Errorf("input drift: %s at seed %d has text digest %s, recorded %s", in.name, seed, in.digest, rec.Input)
	}
	return nil
}

// pinCanary regenerates the canary seed's seed-derived programs and fails
// unless each matches its recorded digest, so that a changed generator
// stops runs on every seed, recorded or not.
func pinCanary(h *harness) error {
	if h.seed == canarySeed {
		return nil
	}
	for _, name := range canaryResolved {
		in := paperInput(canarySeed, name)
		if _, ok := h.digests.paper(canarySeed, name); !ok {
			return fmt.Errorf("digests.json has no %s entry for canary seed %d", name, canarySeed)
		}
		if err := pinSynth(h, canarySeed, in); err != nil {
			return err
		}
	}
	return nil
}

func (w *paperWorkload) setup(h *harness) error {
	w.inputs = w.inputs[:0]
	for _, name := range paperNames() {
		in := paperInput(h.seed, name)
		if err := pinSynth(h, h.seed, in); err != nil {
			return err
		}
		w.inputs = append(w.inputs, in)
	}
	if err := pinCanary(h); err != nil {
		return err
	}
	// Warm up on the smallest program: the first solve of a process pays
	// for page faults and heap growth that later solves do not.
	prog, err := antgrass.ReadProgram(bytes.NewReader(w.inputs[0].text))
	if err == nil {
		_, err = antgrass.Solve(h.ctx, prog, w.options(nil))
	}
	return err
}

// minPasses is the fewest passes a run makes, however long they take:
// analysis_s takes a median per program, which needs three samples to
// set one outlier aside.
const minPasses = 3

func (w *paperWorkload) run(h *harness) {
	w.opSec, w.digests, w.errs = map[string][]float64{}, map[string][]string{}, map[string]int{}
	w.layers = layerSamples{}
	deadline := time.Now().Add(h.seconds)
	op := 0
	for len(w.passes) < minPasses || time.Now().Before(deadline) {
		// Each pass starts from a heap returned to the OS, as a fresh
		// antsolve process would.
		w.results = nil
		resetPeakRSS(true)
		w.results = map[string]*antgrass.Result{}
		progs := map[string]*antgrass.Program{}
		layer := sums{}
		pass := h.tr.begin("pass", false)
		var passDur time.Duration
		for _, in := range w.inputs {
			h.tr.setOp(op)
			op++
			h.attempted++
			var m *antgrass.Metrics
			if h.tr != nil {
				m = antgrass.NewMetrics()
			}
			opSpan := h.tr.begin("op", true)
			t0 := time.Now()
			rs := h.tr.begin("ReadProgram", false)
			prog, err := antgrass.ReadProgram(bytes.NewReader(in.text))
			h.tr.end(rs)
			var res *antgrass.Result
			ss := -1
			if err == nil {
				ss = h.tr.begin("Solve", false)
				res, err = antgrass.Solve(h.ctx, prog, w.options(m))
				h.tr.end(ss)
			}
			d := time.Since(t0)
			h.tr.end(opSpan)
			passDur += d
			if err != nil {
				w.errs[in.name]++
				h.problem("%s: %v", in.name, err)
				continue
			}
			w.opSec[in.name] = append(w.opSec[in.name], d.Seconds())
			w.results[in.name], progs[in.name] = res, prog
			if h.tr != nil {
				layer["constraint.read_s"] += h.tr.spans[rs].dur().Seconds()
				layer.addSolve(m, res.Stats(), h.tr.spans[ss].dur())
				layer.addMem(&h.tr.spans[opSpan])
			}
		}
		h.tr.end(pass)
		w.peaks = append(w.peaks, peakRSSMB())
		w.passes = append(w.passes, passDur.Seconds())
		// Outside the pass's time and memory: digest now, compare after
		// the loop.
		for name, res := range w.results {
			w.digests[name] = append(w.digests[name], solutionDigest(res, progs[name].NumVars))
		}
		if h.tr != nil {
			layer.finish()
			w.layers.add(layer)
		}
	}
}

// fallbackVerified are the programs VerifySolution certifies on a seed
// with no recorded answers; on the others it takes from seconds (gimp,
// insight, linux) to minutes (wine).
var fallbackVerified = []string{"emacs", "ghostscript"}

// canaryResolved are the seed-derived programs: a run on a seed with no
// recorded answers re-solves the canary seed's after timing.
var canaryResolved = []string{"emacs", "ghostscript", "gimp", "insight", "linux"}

func (w *paperWorkload) check(h *harness) {
	h.failed += sumInts(w.errs)
	expect := map[string]string{}
	recordedAll := true
	for _, in := range w.inputs {
		ds := w.digests[in.name]
		if rec, ok := h.digests.paper(h.seed, in.name); ok {
			expect[in.name] = rec.Solution
		} else if len(ds) > 0 {
			recordedAll = false
			expect[in.name] = ds[0]
		}
		for i, d := range ds {
			if d != expect[in.name] {
				h.failed++
				h.problem("%s pass %d: solution digest %s, expected %s", in.name, i, d, expect[in.name])
			}
		}
	}
	if recordedAll {
		return
	}
	// No recorded answer for this seed. Certify the cheap programs,
	// re-solve the canary seed's programs against their recorded
	// answers, and compare with what the other paper workload computed
	// for this seed in this checkout.
	failProgram := func(name, format string, args ...any) {
		h.failed += len(w.digests[name])
		h.problem(name+": "+format, args...)
	}
	for _, in := range w.inputs {
		res := w.results[in.name]
		if res == nil || !slices.Contains(fallbackVerified, in.name) {
			continue
		}
		prog, err := antgrass.ReadProgram(bytes.NewReader(in.text))
		if err == nil {
			err = antgrass.VerifySolution(prog, res)
		}
		if err != nil {
			failProgram(in.name, "%v", err)
		}
	}
	for _, name := range canaryResolved {
		in := paperInput(canarySeed, name)
		rec, _ := h.digests.paper(canarySeed, name)
		prog, err := antgrass.ReadProgram(bytes.NewReader(in.text))
		var res *antgrass.Result
		if err == nil {
			res, err = antgrass.Solve(h.ctx, prog, w.options(nil))
		}
		switch {
		case err != nil:
			failProgram(name, "canary seed %d: %v", canarySeed, err)
		case solutionDigest(res, prog.NumVars) != rec.Solution:
			failProgram(name, "canary seed %d: solution differs from the recorded answer", canarySeed)
		}
	}
	bad, err := agree(h.seed, expect)
	if err != nil {
		h.problem("agreement file: %v", err)
		h.failed++
	}
	for _, name := range bad {
		failProgram(name, "solution differs from the other paper workload's for seed %d", h.seed)
	}
}

// report gives analysis_s as a typical pass: the sum over the six
// programs of each one's median op time. Unlike the median of whole
// passes, it sets aside a burst of host contention that slows one
// program in one pass and another program in another.
func (w *paperWorkload) report(h *harness) {
	perProgram := map[string]summary{}
	for name, xs := range w.opSec {
		perProgram[name] = summarize(xs)
		h.e2e["analysis_s"] += perProgram[name].P50
	}
	h.e2e["peak_rss_mb"] = maximum(w.peaks)
	h.info["pass_s"] = w.passes
	h.info["pass_peak_rss_mb"] = w.peaks
	h.info["op_s_by_program"] = perProgram
	w.layers.into(h)
}

func (w *paperWorkload) release() { w.results = nil }

func sumInts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
