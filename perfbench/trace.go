package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one harness call into a layer: its name, its interval relative
// to the start of the run, the span that caused it (-1 for none) and the
// op it belongs to. Spans opened with memory accounting also carry the
// runtime.MemStats deltas over their interval.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Memory deltas, present when the span was opened with mem set.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
	GCCycles   uint32 `json:"gc_cycles,omitempty"`

	mem       bool
	ms0Alloc  uint64
	ms0Malloc uint64
	ms0GC     uint32
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory for one run. A nil *tracer records
// nothing, so the untraced run pays one nil check per call. The load is
// driven by a single goroutine, so the tracer takes no locks.
type tracer struct {
	base     time.Time
	spans    []span
	open     []int // stack of open span ids
	op       int
	overhead time.Duration // time spent inside the tracer itself
}

func newTracer() *tracer { return &tracer{base: time.Now(), op: -1} }

// setOp tags the spans opened from now on with op id.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span as a child of the innermost open span. With mem set
// it also snapshots runtime.MemStats, whose stop-the-world read is why
// memory accounting is kept to op-level spans.
func (t *tracer) begin(name string, mem bool) int {
	if t == nil {
		return -1
	}
	t0 := time.Now()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	s := span{Name: name, ID: len(t.spans), Parent: parent, Op: t.op, mem: mem}
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.ms0Alloc, s.ms0Malloc, s.ms0GC = ms.TotalAlloc, ms.Mallocs, ms.NumGC
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	now := time.Now()
	t.spans[s.ID].StartNS = now.Sub(t.base).Nanoseconds()
	t.overhead += now.Sub(t0)
	return s.ID
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t0 := time.Now()
	s := &t.spans[id]
	s.EndNS = t0.Sub(t.base).Nanoseconds()
	if s.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.AllocBytes = ms.TotalAlloc - s.ms0Alloc
		s.Mallocs = ms.Mallocs - s.ms0Malloc
		s.GCCycles = ms.NumGC - s.ms0GC
	}
	t.open = t.open[:len(t.open)-1]
	t.overhead += time.Since(t0)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed by span id.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].StartNS, s.StartNS), min(spans[k].EndNS, s.EndNS)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.StartNS
		for _, v := range iv {
			if v[1] <= reach {
				continue
			}
			covered += v[1] - max(v[0], reach)
			reach = v[1]
		}
		out[i] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// write stores the spans, with their self times, as JSON at path.
func (t *tracer) write(path string) error {
	self := selfTimes(t.spans)
	type row struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{s, self[i].Nanoseconds()}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []row `json:"spans"`
	}{rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
