// Command perfbench is the antgrass benchmark: four workloads that run the
// paper's constraint-file solve, the antgo path over real Go code, and the
// antserve edit-and-query loop in-process, through the same public calls
// the command-line tools make. It checks every answer after timing and
// prints, as the last line of its output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// same run is traced, span by span, and the metrics are the per-layer
// ones. See README.md for the workloads, the metrics and the trace format.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procStart approximates process start: package initialization runs
// before main, so set-up time is measured from here.
var procStart = time.Now()

// setupReps is how many times a run sets up its workload; setup_s is the
// median.
const setupReps = 5

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of antgrass sees, printed by every
// untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"analysis_s", "s"},
	{"peak_rss_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's metrics, one or more per layer of the
// repository. A layer that the workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"constraint.read_s", "s"},
	{"gogen.compile_s", "s"},
	{"gogen.alloc_mb", "MB"},
	{"gogen.vars", "count"},
	{"gogen.constraints", "count"},
	{"hvn.hvn_s", "s"},
	{"hvn.hu_s", "s"},
	{"ovs.reduce_s", "s"},
	{"offline.constraints_after", "count"},
	{"hcd.analyze_s", "s"},
	{"core.hcd_collapses", "count"},
	{"core.build_s", "s"},
	{"core.propagate_s", "s"},
	{"core.cycledetect_s", "s"},
	{"core.finalize_s", "s"},
	{"core.propagations", "count"},
	{"core.edges_added", "count"},
	{"core.nodes_searched", "count"},
	{"core.cycle_checks", "count"},
	{"core.nodes_collapsed", "count"},
	{"lcd.collapses_per_check", "ratio"},
	{"core.mem_bytes", "bytes"},
	{"pts.pool_recycle_ratio", "ratio"},
	{"pts.dedup_hit_ratio", "ratio"},
	{"pts.cow_clone_ratio", "ratio"},
	{"op.alloc_mb", "MB"},
	{"op.allocs", "count"},
	{"op.gc_cycles", "count"},
	{"par.rounds", "count"},
	{"par.steals", "count"},
	{"par.merge_share", "ratio"},
	{"par.shard_weight_ratio", "ratio"},
	{"antgrass.publish_s", "s"},
	{"session.update_ms", "ms"},
	{"core.resume_ms", "ms"},
	{"session.publish_ms", "ms"},
	{"core.propagations_per_add", "count"},
	{"core.replay_ms", "ms"},
	{"session.cold_start_s", "s"},
	{"session.updates_resumed", "count"},
	{"session.updates_replayed", "count"},
	{"session.add_p50_ms", "ms"},
	{"session.add_p90_ms", "ms"},
	{"session.remove_p50_ms", "ms"},
	{"session.query_p50_us", "us"},
	{"session.query_p90_us", "us"},
	{"client.census_s", "s"},
	{"client.callgraph_s", "s"},
	{"client.modref_s", "s"},
	{"client.call_edges", "count"},
	{"serve.update_overhead_ms", "ms"},
	{"serve.pointsto_us", "us"},
	{"serve.alias_us", "us"},
	{"snapshot.pointsto_ns", "ns"},
	{"snapshot.alias_ns", "ns"},
	{"query.pts_len_mean", "count"},
	{"trace.overhead_share", "ratio"},
}

// workload is one named benchmark workload.
type workload interface {
	// setup builds and pins the inputs and warms up; it runs setupReps
	// times.
	setup(h *harness) error
	// run is the timed closed loop.
	run(h *harness)
	// check verifies every answer, after timing.
	check(h *harness)
	// report fills h.e2e["analysis_s"], the per-layer metrics of a
	// traced run, and the context line.
	report(h *harness)
	// release drops the results the run holds at its end.
	release()
}

var workloads = map[string]func() workload{
	"paper-batch":  func() workload { return &paperWorkload{} },
	"paper-par2":   func() workload { return &paperWorkload{workers: 2} },
	"go-stdlib":    func() workload { return &goWorkload{} },
	"session-edit": func() workload { return &sessionWorkload{} },
}

// harness is the state one run shares between the main loop and its
// workload.
type harness struct {
	name    string
	seed    int64
	seconds time.Duration
	tr      *tracer // nil in the untraced run
	digests *digestTable
	ctx     context.Context

	attempted, failed int
	problems          []string

	e2e   map[string]float64
	layer map[string]float64
	info  map[string]any
}

// problem records a failed check; the caller also counts the failed ops.
func (h *harness) problem(format string, args ...any) {
	h.problems = append(h.problems, fmt.Sprintf(format, args...))
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-batch, paper-par2, go-stdlib or session-edit")
	seed := flag.Int64("seed", canarySeed, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 15, "length of the timed loop in seconds")
	traced := flag.Int("trace", 0, "1 traces the run, writes the spans to .bench_build/perfbench-traces/ and reports the per-layer metrics")
	record := flag.Bool("record", false, "compute the expected digests of -workload and -seed with the reference evaluator and print them")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds ≥ 1 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	if *record {
		return recordDigests(*name, *seed)
	}
	digests, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	h := &harness{
		name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		digests: digests, ctx: context.Background(),
		e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{},
	}
	if *traced == 1 {
		h.tr = newTracer()
	}
	probe := startHostProbe()
	w := mk()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		if err := w.setup(h); err != nil {
			// A drifted input must stop the run: its numbers would
			// otherwise read as a change in performance.
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 3
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	runStart := time.Now()
	w.run(h)
	runWall := time.Since(runStart)
	h.e2e["setup_s"] = median(setups)
	w.check(h)
	w.report(h)
	// The heap the run's results hold: the live heap with them, less the
	// live heap once they are dropped.
	held := liveHeap()
	w.release()
	h.e2e["live_heap_mb"] = float64(int64(held)-int64(liveHeap())) / (1 << 20)
	h.info["setup_s_samples"] = setups
	h.info["host"] = probe.finish()

	metrics := map[string]metricValue{}
	specs := endToEnd
	values := h.e2e
	if h.tr != nil {
		h.layer["trace.overhead_share"] = h.tr.overhead.Seconds() / runWall.Seconds()
		// The traced run's own end-to-end figures, read against an
		// untraced run, give the tracing overhead end to end.
		h.info["traced_end_to_end"] = h.e2e
		h.info["trace_spans"] = len(h.tr.spans)
		specs, values = perLayer, h.layer
		path := filepath.Join(".bench_build", "perfbench-traces", fmt.Sprintf("%s-%d.json", h.name, h.seed))
		if err := h.tr.write(path); err != nil {
			h.problem("writing trace: %v", err)
			h.failed++
		}
		h.info["trace_file"] = path
	}
	for _, s := range specs {
		metrics[s.name] = metricValue{Value: values[s.name], Unit: s.unit}
	}
	for _, p := range h.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	ctxLine, err := json.Marshal(map[string]any{"workload": h.name, "seed": h.seed, "context": h.info})
	if err == nil {
		fmt.Println(string(ctxLine))
	}
	out, err := json.Marshal(result{
		Correct:   h.failed == 0 && len(h.problems) == 0,
		Attempted: h.attempted,
		Failed:    h.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
