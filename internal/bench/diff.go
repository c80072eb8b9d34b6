package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// DiffOptions configures report comparison.
type DiffOptions struct {
	// ThresholdPercent is the wall-clock slowdown above which a run
	// counts as a regression (e.g. 10 means ">10% slower fails").
	ThresholdPercent float64
	// MinSeconds suppresses regression verdicts when both measurements
	// are below this floor: sub-noise runs produce huge spurious
	// percentages. 0 means no floor.
	MinSeconds float64
	// AllocThresholdPercent is the allocs-per-run growth above which a
	// run counts as an allocation regression. 0 disables the gate. The
	// gate only applies to cells where both reports carry allocation
	// counts (older reports predate the fields).
	AllocThresholdPercent float64
	// MemThresholdPercent is the peak-heap growth above which a run
	// counts as a memory regression. 0 disables the gate; cells missing
	// a peak sample on either side are exempt.
	MemThresholdPercent float64
	// ServeThresholdPercent is the serve-load p99 query-latency growth
	// above which a matched serve run counts as a regression. Any
	// matched serve run of the NEW report with a non-zero error count
	// fails regardless of the threshold. 0 disables the latency gate
	// (the error check still applies to matched runs); benches without
	// serve measurements on either side are exempt.
	ServeThresholdPercent float64
	// OfflineThresholdPercent is the relative shrinkage of the HVN+HU
	// extra reduction (the constraint-count win beyond OVS-only) above
	// which a matched offline run counts as a regression: with a
	// threshold of 10, a workload whose extra reduction drops from 40%
	// to under 36% fails. The counts are deterministic, so this gate is
	// host-independent. 0 disables it; benches without offline
	// measurements on either side are exempt.
	OfflineThresholdPercent float64
	// GoThresholdPercent is the absolute relative change in a matched
	// go_frontend cell's constraint count or call-graph edge count above
	// which the cell counts as a regression. The gate is count-based and
	// host-independent (no wall clock), but deliberately loose by
	// default: real-Go constraint counts shift between Go toolchain
	// releases. A matched cell of the NEW report with a front-end error
	// or an empty call graph always fails regardless of the threshold.
	// 0 disables the drift gate (the error/empty checks still apply);
	// cells missing on either side are exempt.
	GoThresholdPercent float64
	// MemoThresholdPercent is the minimum memo hit rate (in percent)
	// every memo cell of the NEW report must clear: with a threshold of
	// 20, a cell whose hits/(hits+misses) falls below 0.20 fails — a
	// collapsed hit rate means the canonical-id keying broke (every
	// operation misses) long before wall clock notices. 0 disables the
	// hit-rate gate. Independent of the threshold, every memo cell of the
	// NEW report must not carry an error (solve failure or solution
	// mismatch against the plain run), and the memoized wall time is
	// gated against the old report's matched cell with the main
	// ThresholdPercent and MinSeconds floor.
	MemoThresholdPercent float64
}

// DiffEntry compares one run present in both reports.
type DiffEntry struct {
	Key          string  `json:"key"`
	OldSeconds   float64 `json:"old_seconds"`
	NewSeconds   float64 `json:"new_seconds"`
	DeltaPercent float64 `json:"delta_percent"` // positive = slower
	// OldAllocs / NewAllocs / AllocDeltaPercent compare allocator
	// traffic (runtime Mallocs across the solve); zero counts mean the
	// report predates the field.
	OldAllocs         uint64  `json:"old_allocs,omitempty"`
	NewAllocs         uint64  `json:"new_allocs,omitempty"`
	AllocDeltaPercent float64 `json:"alloc_delta_percent,omitempty"`
	// OldPeakBytes / NewPeakBytes / MemDeltaPercent compare peak heap.
	OldPeakBytes    uint64  `json:"old_peak_bytes,omitempty"`
	NewPeakBytes    uint64  `json:"new_peak_bytes,omitempty"`
	MemDeltaPercent float64 `json:"mem_delta_percent,omitempty"`
	// Regression marks entries beyond a threshold (and above the noise
	// floor); Why names the dimensions that tripped ("wall", "allocs",
	// "peak-mem").
	Regression bool     `json:"regression"`
	Why        []string `json:"why,omitempty"`
	// BelowFloor marks entries exempted by MinSeconds.
	BelowFloor bool `json:"below_floor,omitempty"`
}

// ServeDiffEntry compares one serve-load run present in both reports.
type ServeDiffEntry struct {
	Key             string   `json:"key"`
	OldP99Seconds   float64  `json:"old_p99_seconds"`
	NewP99Seconds   float64  `json:"new_p99_seconds"`
	P99DeltaPercent float64  `json:"p99_delta_percent"` // positive = slower
	OldQPS          float64  `json:"old_qps"`
	NewQPS          float64  `json:"new_qps"`
	NewErrors       int64    `json:"new_errors,omitempty"`
	Regression      bool     `json:"regression"`
	Why             []string `json:"why,omitempty"`
}

// OfflineDiffEntry compares one offline-reduction run present in both
// reports.
type OfflineDiffEntry struct {
	Key string `json:"key"`
	// OldExtraPercent / NewExtraPercent are the HVN+HU reductions beyond
	// OVS-only (OfflineRun.ExtraReductionPercent) of each report.
	OldExtraPercent float64 `json:"old_extra_percent"`
	NewExtraPercent float64 `json:"new_extra_percent"`
	// RelativeDropPercent is how much of the old win was lost
	// ((old−new)/old·100); negative means the reduction improved.
	RelativeDropPercent float64  `json:"relative_drop_percent"`
	Regression          bool     `json:"regression"`
	Why                 []string `json:"why,omitempty"`
}

// MemoDiffEntry is the verdict on one memo cell. Hard-gated cells (hit
// rate, error) appear even when the cell is new; the wall columns are
// populated only for cells present in both reports.
type MemoDiffEntry struct {
	Key          string   `json:"key"`
	OldSeconds   float64  `json:"old_seconds,omitempty"`
	NewSeconds   float64  `json:"new_seconds,omitempty"`
	DeltaPercent float64  `json:"delta_percent,omitempty"` // positive = slower
	NewHitRate   float64  `json:"new_hit_rate"`
	NewSpeedup   float64  `json:"new_speedup,omitempty"`
	Regression   bool     `json:"regression"`
	Why          []string `json:"why,omitempty"`
	BelowFloor   bool     `json:"below_floor,omitempty"`
}

// GoDiffEntry compares one go_frontend cell present in both reports.
type GoDiffEntry struct {
	Key string `json:"key"`
	// OldConstraints / NewConstraints are the total generated constraint
	// counts; OldEdges / NewEdges the resolved call-graph edge counts.
	OldConstraints int `json:"old_constraints"`
	NewConstraints int `json:"new_constraints"`
	OldEdges       int `json:"old_edges"`
	NewEdges       int `json:"new_edges"`
	// ConstraintDeltaPercent / EdgeDeltaPercent are relative changes
	// (positive = grew).
	ConstraintDeltaPercent float64  `json:"constraint_delta_percent"`
	EdgeDeltaPercent       float64  `json:"edge_delta_percent"`
	Regression             bool     `json:"regression"`
	Why                    []string `json:"why,omitempty"`
}

// DiffResult is the outcome of comparing two reports.
type DiffResult struct {
	Entries []DiffEntry `json:"entries"`
	// ServeEntries compares serve-load runs present in both reports
	// (matched by bench and reader count). Empty when either report
	// predates the serve_load section.
	ServeEntries []ServeDiffEntry `json:"serve_entries,omitempty"`
	// OfflineEntries compares offline constraint-reduction runs present
	// in both reports (matched by bench). Empty when either report
	// predates the offline section.
	OfflineEntries []OfflineDiffEntry `json:"offline_entries,omitempty"`
	// MemoEntries holds one verdict per memo cell of the NEW report
	// (hit-rate and error hard gates apply unconditionally; the wall gate
	// applies to cells matched in the old report). Empty when the new
	// report lacks the memo section.
	MemoEntries []MemoDiffEntry `json:"memo_entries,omitempty"`
	// GoEntries compares go_frontend cells present in both reports
	// (matched by bench). Empty when either report lacks the section.
	GoEntries []GoDiffEntry `json:"go_entries,omitempty"`
	// MissingInNew lists run keys present in the old report only —
	// a silently dropped benchmark is itself a CI failure.
	MissingInNew []string `json:"missing_in_new,omitempty"`
	// AddedInNew lists run keys present in the new report only.
	AddedInNew []string `json:"added_in_new,omitempty"`
	// Regressions counts entries with Regression set.
	Regressions int `json:"regressions"`
}

// DiffReports compares wall-clock time, allocation traffic and peak memory
// run by run. Runs are matched by (bench, algo, pts, workers). Errored
// runs (zero wall time) are listed but never produce a regression verdict
// in either direction, and runs below the MinSeconds noise floor are
// exempt from every gate (tiny solves make every dimension noisy).
func DiffReports(old, new *Report, opts DiffOptions) *DiffResult {
	res := &DiffResult{}
	newByKey := map[string]Run{}
	for _, r := range new.Runs {
		newByKey[r.Key()] = r
	}
	seen := map[string]bool{}
	for _, o := range old.Runs {
		key := o.Key()
		n, ok := newByKey[key]
		if !ok {
			res.MissingInNew = append(res.MissingInNew, key)
			continue
		}
		seen[key] = true
		e := DiffEntry{
			Key:        key,
			OldSeconds: o.WallSeconds, NewSeconds: n.WallSeconds,
			OldAllocs: o.Allocs, NewAllocs: n.Allocs,
			OldPeakBytes: o.PeakHeapBytes, NewPeakBytes: n.PeakHeapBytes,
		}
		if o.WallSeconds > 0 && n.WallSeconds > 0 {
			e.DeltaPercent = (n.WallSeconds - o.WallSeconds) / o.WallSeconds * 100
			if opts.MinSeconds > 0 && o.WallSeconds < opts.MinSeconds && n.WallSeconds < opts.MinSeconds {
				e.BelowFloor = true
			} else {
				if e.DeltaPercent > opts.ThresholdPercent {
					e.Why = append(e.Why, "wall")
				}
				if o.Allocs > 0 && n.Allocs > 0 {
					e.AllocDeltaPercent = (float64(n.Allocs) - float64(o.Allocs)) / float64(o.Allocs) * 100
					if opts.AllocThresholdPercent > 0 && e.AllocDeltaPercent > opts.AllocThresholdPercent {
						e.Why = append(e.Why, "allocs")
					}
				}
				if o.PeakHeapBytes > 0 && n.PeakHeapBytes > 0 {
					e.MemDeltaPercent = (float64(n.PeakHeapBytes) - float64(o.PeakHeapBytes)) / float64(o.PeakHeapBytes) * 100
					if opts.MemThresholdPercent > 0 && e.MemDeltaPercent > opts.MemThresholdPercent {
						e.Why = append(e.Why, "peak-mem")
					}
				}
				if len(e.Why) > 0 {
					e.Regression = true
					res.Regressions++
				}
			}
		}
		res.Entries = append(res.Entries, e)
	}
	for _, n := range new.Runs {
		if !seen[n.Key()] {
			res.AddedInNew = append(res.AddedInNew, n.Key())
		}
	}

	// Serve-load runs: gated on p99 latency growth and on any errors in
	// the new report. Unlike solve runs, a serve run missing from the new
	// report is not a failure — the serve stage is optional per run.
	serveNew := map[string]ServeLoadRun{}
	for _, r := range new.ServeLoad {
		serveNew[r.Key()] = r
	}
	for _, o := range old.ServeLoad {
		n, ok := serveNew[o.Key()]
		if !ok || o.Error != "" || n.Error != "" {
			continue
		}
		e := ServeDiffEntry{
			Key:           o.Key(),
			OldP99Seconds: o.QueryP99Seconds, NewP99Seconds: n.QueryP99Seconds,
			OldQPS: o.QPS, NewQPS: n.QPS,
			NewErrors: n.Errors,
		}
		if o.QueryP99Seconds > 0 && n.QueryP99Seconds > 0 {
			e.P99DeltaPercent = (n.QueryP99Seconds - o.QueryP99Seconds) / o.QueryP99Seconds * 100
			if opts.ServeThresholdPercent > 0 && e.P99DeltaPercent > opts.ServeThresholdPercent {
				e.Why = append(e.Why, "query-p99")
			}
		}
		if n.Errors > 0 {
			e.Why = append(e.Why, "query-errors")
		}
		if len(e.Why) > 0 {
			e.Regression = true
			res.Regressions++
		}
		res.ServeEntries = append(res.ServeEntries, e)
	}

	// Offline runs: gated on relative shrinkage of the HVN+HU win beyond
	// OVS-only. The counts are exact, so there is no noise floor; like
	// serve runs, a bench missing from the new report's offline section
	// is simply unmatched (the section is optional per run).
	offlineNew := map[string]OfflineRun{}
	for _, r := range new.Offline {
		offlineNew[r.Key()] = r
	}
	for _, o := range old.Offline {
		n, ok := offlineNew[o.Key()]
		if !ok {
			continue
		}
		e := OfflineDiffEntry{
			Key:             o.Key(),
			OldExtraPercent: o.ExtraReductionPercent(),
			NewExtraPercent: n.ExtraReductionPercent(),
		}
		if e.OldExtraPercent > 0 {
			e.RelativeDropPercent = (e.OldExtraPercent - e.NewExtraPercent) / e.OldExtraPercent * 100
			if opts.OfflineThresholdPercent > 0 && e.RelativeDropPercent > opts.OfflineThresholdPercent {
				e.Why = append(e.Why, "offline-reduction")
				e.Regression = true
				res.Regressions++
			}
		}
		res.OfflineEntries = append(res.OfflineEntries, e)
	}

	// Memo cells: every cell of the NEW report is hard-gated on no error
	// (a solution mismatch against the plain run is a correctness bug, not
	// a perf question) and — when the gate is enabled — on the hit rate
	// staying above the floor, because a collapsed hit rate means the
	// canonical-id keying broke regardless of host speed. The wall gate
	// (MemoSeconds old vs new) applies only to matched cells, with the
	// usual noise floor.
	memoOld := map[string]MemoRun{}
	for _, r := range old.Memo {
		memoOld[r.Key()] = r
	}
	for _, n := range new.Memo {
		e := MemoDiffEntry{
			Key:        n.Key(),
			NewSeconds: n.MemoSeconds,
			NewHitRate: n.HitRate,
			NewSpeedup: n.Speedup,
		}
		if n.Error != "" {
			e.Why = append(e.Why, "memo-error")
		} else {
			if opts.MemoThresholdPercent > 0 && n.HitRate*100 < opts.MemoThresholdPercent {
				e.Why = append(e.Why, "memo-hit-rate")
			}
			if o, ok := memoOld[n.Key()]; ok && o.Error == "" && o.MemoSeconds > 0 && n.MemoSeconds > 0 {
				e.OldSeconds = o.MemoSeconds
				e.DeltaPercent = (n.MemoSeconds - o.MemoSeconds) / o.MemoSeconds * 100
				if opts.MinSeconds > 0 && o.MemoSeconds < opts.MinSeconds && n.MemoSeconds < opts.MinSeconds {
					e.BelowFloor = true
				} else if opts.ThresholdPercent > 0 && e.DeltaPercent > opts.ThresholdPercent {
					e.Why = append(e.Why, "memo-wall")
				}
			}
		}
		if len(e.Why) > 0 {
			e.Regression = true
			res.Regressions++
		}
		res.MemoEntries = append(res.MemoEntries, e)
	}

	// Go front-end cells: count-based and host-independent. A matched new
	// cell with a front-end/solve error or an empty call graph always
	// fails; count drift beyond GoThresholdPercent (in either direction —
	// a large drop means the generator stopped covering constructs, a
	// large rise means a blowup) fails when the gate is enabled.
	goNew := map[string]GoFrontendRun{}
	for _, r := range new.GoFrontend {
		goNew[r.Key()] = r
	}
	for _, o := range old.GoFrontend {
		n, ok := goNew[o.Key()]
		if !ok || o.Error != "" {
			continue
		}
		oldTotal := o.Addr + o.Copy + o.Load + o.Store
		newTotal := n.Addr + n.Copy + n.Load + n.Store
		e := GoDiffEntry{
			Key:            o.Key(),
			OldConstraints: oldTotal, NewConstraints: newTotal,
			OldEdges: o.CallEdges, NewEdges: n.CallEdges,
		}
		if n.Error != "" {
			e.Why = append(e.Why, "error")
		} else if n.CallEdges == 0 {
			e.Why = append(e.Why, "empty-callgraph")
		}
		if oldTotal > 0 {
			e.ConstraintDeltaPercent = (float64(newTotal) - float64(oldTotal)) / float64(oldTotal) * 100
		}
		if o.CallEdges > 0 {
			e.EdgeDeltaPercent = (float64(n.CallEdges) - float64(o.CallEdges)) / float64(o.CallEdges) * 100
		}
		if opts.GoThresholdPercent > 0 && n.Error == "" {
			if abs(e.ConstraintDeltaPercent) > opts.GoThresholdPercent {
				e.Why = append(e.Why, "constraint-drift")
			}
			if abs(e.EdgeDeltaPercent) > opts.GoThresholdPercent {
				e.Why = append(e.Why, "call-edge-drift")
			}
		}
		if len(e.Why) > 0 {
			e.Regression = true
			res.Regressions++
		}
		res.GoEntries = append(res.GoEntries, e)
	}
	return res
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Print renders the diff as a human-readable table.
func (d *DiffResult) Print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "run\told\tnew\tdelta\tallocs\tpeak\t\n")
	for _, e := range d.Entries {
		verdict := ""
		switch {
		case e.Regression:
			verdict = "REGRESSION"
			for _, why := range e.Why {
				verdict += " " + why
			}
		case e.BelowFloor:
			verdict = "(below noise floor)"
		}
		allocCol, memCol := "-", "-"
		if e.OldAllocs > 0 && e.NewAllocs > 0 {
			allocCol = fmt.Sprintf("%+.1f%%", e.AllocDeltaPercent)
		}
		if e.OldPeakBytes > 0 && e.NewPeakBytes > 0 {
			memCol = fmt.Sprintf("%+.1f%%", e.MemDeltaPercent)
		}
		fmt.Fprintf(tw, "%s\t%.3fs\t%.3fs\t%+.1f%%\t%s\t%s\t%s\n",
			e.Key, e.OldSeconds, e.NewSeconds, e.DeltaPercent, allocCol, memCol, verdict)
	}
	tw.Flush()
	if len(d.ServeEntries) > 0 {
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "serve run\told p99\tnew p99\tdelta\tqps\t\n")
		for _, e := range d.ServeEntries {
			verdict := ""
			if e.Regression {
				verdict = "REGRESSION"
				for _, why := range e.Why {
					verdict += " " + why
				}
			}
			fmt.Fprintf(tw, "%s\t%.1fµs\t%.1fµs\t%+.1f%%\t%.0f→%.0f\t%s\n",
				e.Key, e.OldP99Seconds*1e6, e.NewP99Seconds*1e6, e.P99DeltaPercent,
				e.OldQPS, e.NewQPS, verdict)
		}
		tw.Flush()
	}
	if len(d.OfflineEntries) > 0 {
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "offline run\told extra\tnew extra\trel drop\t\n")
		for _, e := range d.OfflineEntries {
			verdict := ""
			if e.Regression {
				verdict = "REGRESSION"
				for _, why := range e.Why {
					verdict += " " + why
				}
			}
			fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%+.1f%%\t%s\n",
				e.Key, e.OldExtraPercent, e.NewExtraPercent, e.RelativeDropPercent, verdict)
		}
		tw.Flush()
	}
	if len(d.MemoEntries) > 0 {
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "memo cell\told\tnew\tdelta\thit rate\tspeedup\t\n")
		for _, e := range d.MemoEntries {
			verdict := ""
			switch {
			case e.Regression:
				verdict = "REGRESSION"
				for _, why := range e.Why {
					verdict += " " + why
				}
			case e.BelowFloor:
				verdict = "(below noise floor)"
			}
			oldCol, deltaCol := "-", "-"
			if e.OldSeconds > 0 {
				oldCol = fmt.Sprintf("%.3fs", e.OldSeconds)
				deltaCol = fmt.Sprintf("%+.1f%%", e.DeltaPercent)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3fs\t%s\t%.0f%%\t%.2fx\t%s\n",
				e.Key, oldCol, e.NewSeconds, deltaCol, e.NewHitRate*100, e.NewSpeedup, verdict)
		}
		tw.Flush()
	}
	if len(d.GoEntries) > 0 {
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "go cell\tconstraints\tdelta\tcall edges\tdelta\t\n")
		for _, e := range d.GoEntries {
			verdict := ""
			if e.Regression {
				verdict = "REGRESSION"
				for _, why := range e.Why {
					verdict += " " + why
				}
			}
			fmt.Fprintf(tw, "%s\t%d→%d\t%+.1f%%\t%d→%d\t%+.1f%%\t%s\n",
				e.Key, e.OldConstraints, e.NewConstraints, e.ConstraintDeltaPercent,
				e.OldEdges, e.NewEdges, e.EdgeDeltaPercent, verdict)
		}
		tw.Flush()
	}
	for _, k := range d.MissingInNew {
		fmt.Fprintf(w, "missing in new report: %s\n", k)
	}
	for _, k := range d.AddedInNew {
		fmt.Fprintf(w, "added in new report: %s\n", k)
	}
	fmt.Fprintf(w, "%d regression(s)\n", d.Regressions)
}

// Failed reports whether the diff should fail a CI gate: any regression
// (wall, allocs or peak memory), or any run that silently disappeared.
func (d *DiffResult) Failed() bool {
	return d.Regressions > 0 || len(d.MissingInNew) > 0
}
