package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"antgrass"
	"antgrass/internal/serve"
)

// sessionWorkload is session-edit: a resident LCD+HCD session over synth
// ghostscript, loaded through the antserve handler with no sockets. The
// load is the edit stream of sessionPlan, each edit followed by
// queriesPerEdit queries.
type sessionWorkload struct {
	plan    *sessionPlan
	updates []*http.Request // one per edit, built before timing
	queries []*http.Request // queryBlocks × queriesPerEdit
	m       *antgrass.Metrics
	sess    *antgrass.Session // held through live_heap_mb
	srv     *serve.Server

	coldStart          []float64 // seconds per NewSession, one per setup
	addMS, removeMS    []float64
	pointsUS, aliasUS  []float64
	overheadMS         []float64
	groups             []float64 // seconds per 5:1 group, queries included
	peaks              []float64 // peak RSS per group, MB
	nAdds, nRemoves    int
	badStatus, badBody int
	layers             layerSamples
}

func sessionOptions(m *antgrass.Metrics) antgrass.Options {
	return antgrass.Options{Algorithm: antgrass.LCD, HCD: true, Metrics: m}
}

// updateBody is the /v1/update request of one edit.
func updateBody(e edit) []byte {
	type wire struct {
		Kind string `json:"kind"`
		Dst  uint32 `json:"dst"`
		Src  uint32 `json:"src"`
		Off  uint32 `json:"off,omitempty"`
	}
	kinds := map[antgrass.ConstraintKind]string{
		antgrass.AddrOf: "addr", antgrass.Copy: "copy", antgrass.Load: "load", antgrass.Store: "store",
	}
	cs := make([]wire, len(e.cons))
	for i, c := range e.cons {
		cs[i] = wire{kinds[c.Kind], c.Dst, c.Src, c.Offset}
	}
	body := map[string][]wire{"add": cs}
	if e.remove {
		body = map[string][]wire{"remove": cs}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return b
}

func queryURL(q query) string {
	if q.alias {
		return fmt.Sprintf("/v1/query/alias?a=%d&b=%d", q.a, q.b)
	}
	return fmt.Sprintf("/v1/query/pointsto?v=%d", q.a)
}

func (w *sessionWorkload) setup(h *harness) error {
	// The program is the same at every seed, so that the seed's share
	// of the spread is only what it holds back and sends.
	in := table2Input("ghostscript")
	if rec, ok := h.digests.Table2[in.name]; !ok || rec.Input != in.digest {
		return fmt.Errorf("input drift: table 2 ghostscript has text digest %s, recorded %s", in.digest, rec.Input)
	}
	prog, err := antgrass.ReadProgram(bytes.NewReader(in.text))
	if err != nil {
		return err
	}
	// Enough edits for the longest run this length could make: an
	// addition takes tens of milliseconds at the least.
	nEdits := int(h.seconds/time.Second)*25 + 6*(addsPerRemove+1)
	w.plan = planSession(prog, h.seed, nEdits)
	w.updates = w.updates[:0]
	for _, e := range w.plan.edits {
		w.updates = append(w.updates, httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(updateBody(e))))
	}
	w.queries = w.queries[:0]
	for _, q := range w.plan.queries {
		w.queries = append(w.queries, httptest.NewRequest(http.MethodGet, queryURL(q), nil))
	}

	w.release()
	if h.tr != nil {
		w.m = antgrass.NewMetrics()
	}
	t0 := time.Now()
	sp := h.tr.begin("NewSession", true)
	sess, err := antgrass.NewSession(h.ctx, w.plan.start, sessionOptions(w.m))
	h.tr.end(sp)
	if err != nil {
		return err
	}
	w.coldStart = append(w.coldStart, time.Since(t0).Seconds())
	w.sess, w.srv = sess, serve.New(sess, nil)
	// Warm the query path on the cold session.
	for _, q := range w.queries[:queriesPerEdit] {
		w.srv.ServeHTTP(httptest.NewRecorder(), q)
	}
	return nil
}

// updateResponse is the part of the /v1/update answer the harness reads.
type updateResponse struct {
	SolveNS int64 `json:"solve_ns"`
}

func (w *sessionWorkload) run(h *harness) {
	w.layers = layerSamples{}
	deadline := time.Now().Add(h.seconds)
	var group time.Duration
	for e, req := range w.updates {
		if e%(addsPerRemove+1) == 0 && e > 0 && !time.Now().Before(deadline) {
			break
		}
		remove := w.plan.edits[e].remove
		if e%(addsPerRemove+1) == 0 {
			// Each pattern starts from a heap returned to the OS, so
			// that its peak is its own.
			resetPeakRSS(true)
		}
		h.tr.setOp(e)
		var before antgrass.Stats
		var ph0 map[string]float64
		if h.tr != nil {
			before, ph0 = w.sess.Snapshot().Stats(), phases(w.m)
		}
		rec := httptest.NewRecorder()
		sp := h.tr.begin("ServeHTTP /v1/update", true)
		t0 := time.Now()
		w.srv.ServeHTTP(rec, req)
		d := time.Since(t0)
		h.tr.end(sp)
		group += d
		h.attempted++

		// After timing: read the answer.
		var resp updateResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			h.failed++
			h.problem("edit %d: status %d: %s", e, rec.Code, rec.Body.String())
		}
		solve := time.Duration(resp.SolveNS)
		w.overheadMS = append(w.overheadMS, ms(d-solve))
		if remove {
			w.nRemoves++
			w.removeMS = append(w.removeMS, ms(d))
		} else {
			w.nAdds++
			w.addMS = append(w.addMS, ms(d))
		}
		if h.tr != nil {
			w.traceUpdate(h, remove, solve, before, ph0, &h.tr.spans[sp])
		}

		qs := h.tr.begin("queries", true)
		first := (e % queryBlocks) * queriesPerEdit
		for j := first; j < first+queriesPerEdit; j++ {
			q := w.plan.queries[j]
			rec := httptest.NewRecorder()
			t0 := time.Now()
			w.srv.ServeHTTP(rec, w.queries[j])
			d := time.Since(t0)
			group += d
			h.attempted++
			if q.alias {
				w.aliasUS = append(w.aliasUS, us(d))
			} else {
				w.pointsUS = append(w.pointsUS, us(d))
			}
			// After timing: every answer must be 2xx, and one in a
			// hundred is read back against the session's snapshot.
			if rec.Code/100 != 2 {
				w.badStatus++
			} else if j%100 == 0 && !w.answerMatches(q, rec.Body.Bytes()) {
				w.badBody++
			}
		}
		h.tr.end(qs)
		if remove {
			w.groups = append(w.groups, group.Seconds())
			w.peaks = append(w.peaks, peakRSSMB())
			group = 0
		}
	}
}

// answerMatches compares a query's wire answer with the snapshot it was
// served from.
func (w *sessionWorkload) answerMatches(q query, body []byte) bool {
	sn := w.sess.Snapshot()
	if q.alias {
		var r struct{ Alias bool }
		return json.Unmarshal(body, &r) == nil && r.Alias == sn.Alias(q.a, q.b)
	}
	var r struct {
		PointsTo []antgrass.VarID `json:"points_to"`
	}
	if json.Unmarshal(body, &r) != nil {
		return false
	}
	return slices.Equal(r.PointsTo, sn.PointsTo(q.a))
}

// phases reads a registry's accumulated phase times.
func phases(m *antgrass.Metrics) map[string]float64 {
	out := map[string]float64{}
	for _, p := range m.Snapshot().Phases {
		out[p.Name] = p.Seconds
	}
	return out
}

// traceUpdate attributes one update's time to the layers beneath the
// handler: the solver's phases (their growth over the update) and cost
// counters, and the rest of Session.Update.
func (w *sessionWorkload) traceUpdate(h *harness, remove bool, solve time.Duration, before antgrass.Stats, ph0 map[string]float64, sp *span) {
	ph1 := phases(w.m)
	delta := func(name string) float64 { return ph1[name] - ph0[name] }
	online := delta("solve.propagate") + delta("solve.cycledetect") + delta("solve.hcd.online")
	after := w.sess.Snapshot().Stats()
	s := sums{}
	s.addMem(sp)
	if remove {
		// A removal replays from scratch: a fresh solver whose counters
		// are the replay's own.
		s["core.replay_ms"] = ms(solve)
		s["hcd.analyze_s"] = delta("hcd.offline")
		s["core.build_s"] = delta("graph.build")
		s["core.propagate_s"] = delta("solve.propagate")
		s["core.cycledetect_s"] = delta("solve.cycledetect")
		s.addStats(after)
		s["lcd.collapses_per_check"] = ratio(s["core.nodes_collapsed"], s["core.cycle_checks"])
	} else {
		s["session.update_ms"] = ms(solve)
		s["core.resume_ms"] = online * 1e3
		s["session.publish_ms"] = ms(solve) - online*1e3
		s["core.propagations_per_add"] = float64(after.Propagations - before.Propagations)
	}
	w.layers.add(s)
}

func (w *sessionWorkload) release() { w.sess, w.srv = nil, nil }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func (w *sessionWorkload) check(h *harness) {
	h.failed += w.badStatus + w.badBody
	if w.badStatus+w.badBody > 0 {
		h.problem("%d queries answered non-2xx, %d answers differ from the snapshot", w.badStatus, w.badBody)
	}
	resumed, replayed := w.sess.UpdateStats()
	if resumed != int64(w.nAdds) || replayed != int64(w.nRemoves) {
		h.failed++
		h.problem("session resumed %d and replayed %d updates for %d additions and %d removals", resumed, replayed, w.nAdds, w.nRemoves)
	}
	// The final snapshot must equal a from-scratch solve of the edited
	// program, and that solve must satisfy every constraint.
	prog := w.sess.Program()
	res, err := antgrass.Solve(h.ctx, prog, sessionOptions(nil))
	if err == nil && solutionDigest(res, prog.NumVars) != solutionDigest(w.sess.Snapshot(), prog.NumVars) {
		err = fmt.Errorf("final snapshot differs from a from-scratch solve of the edited program")
	}
	if err == nil {
		err = antgrass.VerifySolution(prog, res)
	}
	if err != nil {
		h.failed++
		h.problem("session-edit: %v", err)
	}
}

func (w *sessionWorkload) report(h *harness) {
	h.e2e["analysis_s"] = median(w.groups)
	h.e2e["peak_rss_mb"] = maximum(w.peaks)
	queries := append(append([]float64(nil), w.pointsUS...), w.aliasUS...)
	tail := map[string]float64{}
	for _, p := range []float64{99, 99.9} {
		if float64(len(queries))*(1-p/100) >= minBeyond {
			tail[fmt.Sprint(p)] = percentile(queries, p)
		}
	}
	h.info["groups"] = len(w.groups)
	h.info["update_add_ms"] = summarize(w.addMS)
	h.info["update_remove_ms"] = summarize(w.removeMS)
	h.info["query_us"] = summarize(queries)
	h.info["query_tail_us"] = tail
	h.info["cold_start_s"] = w.coldStart
	if h.tr == nil {
		return
	}
	w.layers.into(h)
	add, qs := summarize(w.addMS), summarize(queries)
	h.layer["session.add_p50_ms"], h.layer["session.add_p90_ms"] = add.P50, percentile(w.addMS, 90)
	h.layer["session.remove_p50_ms"] = median(w.removeMS)
	h.layer["session.query_p50_us"], h.layer["session.query_p90_us"] = qs.P50, percentile(queries, 90)
	h.layer["session.cold_start_s"] = median(w.coldStart)
	resumed, replayed := w.sess.UpdateStats()
	h.layer["session.updates_resumed"], h.layer["session.updates_replayed"] = float64(resumed), float64(replayed)
	h.layer["serve.update_overhead_ms"] = median(w.overheadMS)
	h.layer["serve.pointsto_us"], h.layer["serve.alias_us"] = median(w.pointsUS), median(w.aliasUS)

	// The cold start's counters: updates do not export them.
	s := sums{}
	s.addSolve(w.m, antgrass.Stats{}, 0)
	s.finish()
	for _, k := range []string{"pts.pool_recycle_ratio", "pts.dedup_hit_ratio", "pts.cow_clone_ratio"} {
		h.layer[k] = s[k]
	}

	// Direct snapshot calls, timed in batches of queriesPerEdit since
	// one call takes well under a microsecond.
	sn := w.sess.Snapshot()
	var pointsNS, aliasNS []float64
	lenSum, lenN := 0, 0
	for b := 0; b < 5*queryBlocks; b++ {
		block := w.plan.queries[(b%queryBlocks)*queriesPerEdit:][:queriesPerEdit]
		t0 := time.Now()
		for _, q := range block {
			sn.PointsTo(q.a)
		}
		pointsNS = append(pointsNS, float64(time.Since(t0))/float64(len(block)))
		t0 = time.Now()
		for _, q := range block {
			sn.Alias(q.a, q.b)
		}
		aliasNS = append(aliasNS, float64(time.Since(t0))/float64(len(block)))
		if b < queryBlocks {
			for _, q := range block {
				if !q.alias {
					lenSum += sn.PointsToLen(q.a)
					lenN++
				}
			}
		}
	}
	h.layer["snapshot.pointsto_ns"], h.layer["snapshot.alias_ns"] = median(pointsNS), median(aliasNS)
	h.layer["query.pts_len_mean"] = ratio(float64(lenSum), float64(lenN))
}
