package main

import (
	"time"

	"antgrass"
)

// sums accumulates the per-layer quantities of one analysis (a pass, an
// antgo op or a session update) before they are reduced to ratios.
type sums map[string]float64

// addSolve folds one Solve's exported metrics into s: the solver's own
// phases and counters, attached under the harness's Solve span, plus
// the remainder of that span the phases do not cover (publishing the
// result as a snapshot).
func (s sums) addSolve(m *antgrass.Metrics, st antgrass.Stats, solveSpan time.Duration) {
	snap := m.Snapshot()
	ph := map[string]float64{}
	total := 0.0
	for _, p := range snap.Phases {
		ph[p.Name] += p.Seconds
		total += p.Seconds
	}
	ct := map[string]float64{}
	for _, c := range snap.Counters {
		ct[c.Name] = float64(c.Value)
	}
	s["hvn.hvn_s"] += ph["hvn.offline"]
	s["hvn.hu_s"] += ph["hu.offline"]
	s["ovs.reduce_s"] += ph["ovs.offline"]
	s["hcd.analyze_s"] += ph["hcd.offline"]
	s["core.build_s"] += ph["graph.build"]
	s["core.propagate_s"] += ph["solve.propagate"] + ph["solve.compute"] + ph["solve.merge"]
	s["core.cycledetect_s"] += ph["solve.cycledetect"]
	s["core.finalize_s"] += ph["finalize"]
	s["antgrass.publish_s"] += solveSpan.Seconds() - total
	s.addStats(st)
	for _, k := range []string{
		"pool_element_gets", "pool_element_recycled", "cow_shares", "cow_clones",
		"dedup_lookups", "dedup_hits", "steals", "merge_ns", "compute_ns",
		"shard_weight_max", "shard_weight_mean",
	} {
		s["_"+k] += ct[k]
	}
}

// addStats folds the solver's cost counters into s.
func (s sums) addStats(st antgrass.Stats) {
	s["core.propagations"] += float64(st.Propagations)
	s["core.edges_added"] += float64(st.EdgesAdded)
	s["core.nodes_searched"] += float64(st.NodesSearched)
	s["core.cycle_checks"] += float64(st.CycleChecks)
	s["core.nodes_collapsed"] += float64(st.NodesCollapsed)
	s["core.hcd_collapses"] += float64(st.HCDCollapses)
	s["core.mem_bytes"] += float64(st.MemBytes)
	s["par.rounds"] += float64(st.Rounds)
}

// addMem folds an op-level span's runtime.MemStats deltas into s.
func (s sums) addMem(sp *span) {
	if sp == nil {
		return
	}
	s["op.alloc_mb"] += float64(sp.AllocBytes) / (1 << 20)
	s["op.allocs"] += float64(sp.Mallocs)
	s["op.gc_cycles"] += float64(sp.GCCycles)
}

// finish turns the raw counters of s into the reported ratios.
func (s sums) finish() {
	s["lcd.collapses_per_check"] = ratio(s["core.nodes_collapsed"], s["core.cycle_checks"])
	s["pts.pool_recycle_ratio"] = ratio(s["_pool_element_recycled"], s["_pool_element_gets"])
	s["pts.dedup_hit_ratio"] = ratio(s["_dedup_hits"], s["_dedup_lookups"])
	s["pts.cow_clone_ratio"] = ratio(s["_cow_clones"], s["_cow_shares"])
	s["par.steals"] = s["_steals"]
	s["par.merge_share"] = ratio(s["_merge_ns"], s["_merge_ns"]+s["_compute_ns"])
	s["par.shard_weight_ratio"] = ratio(s["_shard_weight_max"], s["_shard_weight_mean"])
	for k := range s {
		if k[0] == '_' {
			delete(s, k)
		}
	}
}

// layerSamples collects one sums per analysis; a traced run reports the
// median of each quantity over its analyses.
type layerSamples map[string][]float64

func (l layerSamples) add(s sums) {
	for k, v := range s {
		l[k] = append(l[k], v)
	}
}

// into stores the medians in h.layer (only in a traced run).
func (l layerSamples) into(h *harness) {
	for k, xs := range l {
		h.layer[k] = median(xs)
	}
}
