// Package metrics is the solver observability layer: a lightweight
// registry of named counters and phase timers that every solver threads
// its cost attribution through, plus peak-memory sampling.
//
// The design constraints come from the paper's methodology (§5.3 compares
// solvers by cost counters, Tables 3–4 by wall time and memory) and from
// the hot paths being instrumented:
//
//   - Nil-safe: every method works on a nil *Registry (and a nil
//     *Counter) as a no-op, so solvers instrument unconditionally and
//     callers that don't care pass nothing. Disabled metrics must cost
//     nothing measurable.
//   - Zero-allocation on the hot path: a counter is resolved to a
//     *Counter handle once (Registry.Counter takes a lock), after which
//     Counter.Add is a single atomic add. Phase spans are value types;
//     starting and ending a span allocates nothing.
//   - Concurrency-safe: counters are atomics, the registry maps are
//     mutex-guarded, and peak-memory samples use a CAS max, so parallel
//     workers and the merge goroutine can all report into one registry.
//
// Phases attribute wall-clock time to the stages the paper's evaluation
// separates: offline passes (OVS, HCD) vs. the online solve, and within
// the online solve graph construction vs. propagation. Phase names are
// dotted lowercase ("solve.online", "hcd.offline"); the conventional
// names used by the solvers are the Phase* constants.
package metrics

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Conventional phase names recorded by the solvers. A registry is not
// limited to these; they are exported so report consumers can match
// phases without string literals.
const (
	// PhaseParse is constraint-file parsing or C-front-end compilation.
	PhaseParse = "parse"
	// PhaseGenerate is synthetic workload generation.
	PhaseGenerate = "generate"
	// PhaseHVN is the offline HVN value-numbering pre-pass.
	PhaseHVN = "hvn.offline"
	// PhaseHU is the offline HU (union-evaluating) value-numbering
	// pre-pass.
	PhaseHU = "hu.offline"
	// PhaseOVS is the Offline Variable Substitution pre-pass.
	PhaseOVS = "ovs.offline"
	// PhaseHCD is the HCD offline analysis.
	PhaseHCD = "hcd.offline"
	// PhaseBuild is online constraint-graph (or relation-BDD)
	// construction.
	PhaseBuild = "graph.build"
	// PhaseSolve is the online fixpoint computation proper.
	PhaseSolve = "solve.online"
	// PhaseFinalize is post-solve accounting (memory footprint,
	// solution extraction, the closing memory sample and counter
	// export), so a solve's phases cover its wall clock.
	PhaseFinalize = "finalize"
)

// Counter is a named monotone int64 accumulator. The zero value is ready
// to use; a nil *Counter ignores Add, so handles obtained from a nil
// Registry are safe on hot paths.
type Counter struct {
	v atomic.Int64
}

// Add adds n. It is a single atomic add (no-op on a nil receiver).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry collects named counters, per-phase durations, and peak-memory
// samples for one solve (or one benchmark run). The zero value is ready
// to use; a nil *Registry is a valid always-disabled registry.
type Registry struct {
	mu           sync.Mutex
	counters     map[string]*Counter
	counterOrder []string
	phases       map[string]time.Duration
	phaseOrder   []string

	peakHeap atomic.Uint64
	peakSys  atomic.Uint64
}

// New returns an empty enabled registry.
func New() *Registry { return &Registry{} }

// Counter returns the handle for the named counter, creating it on first
// use. Resolve handles outside hot loops: the lookup takes the registry
// lock, but the returned handle's Add never does. A nil registry returns
// a nil handle (whose Add is a no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.counterOrder = append(r.counterOrder, name)
	}
	return c
}

// SetCounter sets the named counter to v, overwriting any prior value.
// Solvers use it to export their final Stats counters into the registry.
func (r *Registry) SetCounter(name string, v int64) {
	if r == nil {
		return
	}
	c := r.Counter(name)
	c.v.Store(v)
}

// AddPhase accumulates d into the named phase. Negative durations are
// ignored. Use it for durations measured elsewhere (e.g. the cached HCD
// offline time); for in-line measurement prefer StartPhase.
func (r *Registry) AddPhase(name string, d time.Duration) {
	if r == nil || d < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phases == nil {
		r.phases = map[string]time.Duration{}
	}
	if _, ok := r.phases[name]; !ok {
		r.phaseOrder = append(r.phaseOrder, name)
	}
	r.phases[name] += d
}

// Span is an in-progress phase measurement returned by StartPhase. It is
// a value type: starting and ending a span performs no allocation.
type Span struct {
	r     *Registry
	name  string
	start time.Time
}

// StartPhase begins timing the named phase. End the returned span exactly
// once; re-entrant phases accumulate. On a nil registry the span is inert
// (and skips even the clock read).
func (r *Registry) StartPhase(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, start: time.Now()}
}

// End stops the span and accumulates its elapsed time into the phase.
func (s Span) End() {
	if s.r == nil {
		return
	}
	s.r.AddPhase(s.name, time.Since(s.start))
}

// SampleMem reads runtime.MemStats and folds the observation into the
// running peaks. It stops the world briefly, so call it at phase or round
// boundaries, never inside hot loops.
func (r *Registry) SampleMem() {
	if r == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	atomicMax(&r.peakHeap, ms.HeapAlloc)
	atomicMax(&r.peakSys, ms.Sys)
}

// atomicMax raises *a to v if v is larger.
func atomicMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// CounterValue is one named counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// PhaseValue is one named phase duration in a Snapshot.
type PhaseValue struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Snapshot is a point-in-time copy of a registry, safe to serialize while
// the registry keeps accumulating. Counters and phases preserve
// registration order, so reports are deterministic.
type Snapshot struct {
	Counters      []CounterValue `json:"counters,omitempty"`
	Phases        []PhaseValue   `json:"phases,omitempty"`
	PeakHeapBytes uint64         `json:"peak_heap_bytes,omitempty"`
	PeakSysBytes  uint64         `json:"peak_sys_bytes,omitempty"`
}

// Snapshot returns a copy of the registry's current state (zero value on
// a nil registry).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		PeakHeapBytes: r.peakHeap.Load(),
		PeakSysBytes:  r.peakSys.Load(),
	}
	for _, name := range r.counterOrder {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: r.counters[name].Value()})
	}
	for _, name := range r.phaseOrder {
		s.Phases = append(s.Phases, PhaseValue{Name: name, Seconds: r.phases[name].Seconds()})
	}
	return s
}

// PhaseSeconds returns the accumulated seconds of one phase (0 when
// absent or on a nil registry).
func (r *Registry) PhaseSeconds(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phases[name].Seconds()
}

// TotalPhaseSeconds returns the sum of every phase's accumulated time.
func (r *Registry) TotalPhaseSeconds() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var total time.Duration
	for _, d := range r.phases {
		total += d
	}
	return total.Seconds()
}
