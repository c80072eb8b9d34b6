package antgrass

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"antgrass/internal/bitmap"
	"antgrass/internal/constraint"
	"antgrass/internal/core"
	"antgrass/internal/pts"
)

// Constraint is one inclusion constraint (see the constraint package for
// the Table 1 forms). It is exported so clients can describe incremental
// deltas to a Session.
type Constraint = constraint.Constraint

// ConstraintKind discriminates the four constraint forms.
type ConstraintKind = constraint.Kind

// The constraint forms of Table 1.
const (
	// AddrOf is the base constraint pts(dst) ∋ src.
	AddrOf = constraint.AddrOf
	// Copy is the simple constraint pts(dst) ⊇ pts(src).
	Copy = constraint.Copy
	// Load is the complex constraint pts(dst) ⊇ pts(*(src+off)).
	Load = constraint.Load
	// Store is the complex constraint pts(*(dst+off)) ⊇ pts(src).
	Store = constraint.Store
)

// AddrOfConstraint builds pts(dst) ∋ src.
func AddrOfConstraint(dst, src VarID) Constraint {
	return Constraint{Kind: AddrOf, Dst: dst, Src: src}
}

// CopyConstraint builds dst ⊇ src.
func CopyConstraint(dst, src VarID) Constraint {
	return Constraint{Kind: Copy, Dst: dst, Src: src}
}

// LoadConstraint builds dst ⊇ *(src+off).
func LoadConstraint(dst, src VarID, off uint32) Constraint {
	return Constraint{Kind: Load, Dst: dst, Src: src, Offset: off}
}

// StoreConstraint builds *(dst+off) ⊇ src.
func StoreConstraint(dst, src VarID, off uint32) Constraint {
	return Constraint{Kind: Store, Dst: dst, Src: src, Offset: off}
}

// FuncDef describes a function variable added by a Delta: it owns a
// contiguous id block of 2+NumParams slots (the function variable, its
// return slot, its parameters), exactly like Program.AddFunc.
type FuncDef struct {
	Name      string
	NumParams int
}

// Delta is one batch of program edits applied by Session.Update.
//
// Fresh variables are appended to the universe in order: first every
// AddVars entry (one id each), then every AddFuncs entry (2+NumParams ids
// each), starting at the session's current NumVars — so a client that
// knows NumVars can compute the new ids before calling Update.
// Constraints in Add may reference both old and fresh ids.
//
// Remove lists constraints to delete; each entry removes every identical
// occurrence. Removals are handled by coarse invalidation (a from-scratch
// replay of the edited program), additions by resuming the warm fixpoint
// when the session configuration allows it.
type Delta struct {
	AddVars  []string
	AddFuncs []FuncDef
	Add      []Constraint
	Remove   []Constraint
}

// ErrSessionClosed is returned by Update after Close.
var ErrSessionClosed = errors.New("antgrass: session is closed")

// ErrInvalidDelta wraps validation failures of a Delta; the program is
// left untouched. Test with errors.Is.
var ErrInvalidDelta = errors.New("antgrass: invalid delta")

// Empty reports whether the delta contains no edits.
func (d Delta) Empty() bool {
	return len(d.AddVars) == 0 && len(d.AddFuncs) == 0 && len(d.Add) == 0 && len(d.Remove) == 0
}

// Snapshot is an immutable view of one solved epoch. Any number of
// goroutines may query a Snapshot concurrently while the owning Session
// keeps solving updates: with the bitmap representation the snapshot
// reads its sets only through cache-free kernels, so queries are
// lock-free. (BDD-backed snapshots share one BDD manager whose operation
// caches are not concurrency-safe, so their queries serialize on an
// internal mutex.)
//
// A bitmap snapshot holds its sets in one of two ways. A resumable
// Session's snapshots hold copy-on-write shares of the live solver's
// backings: the Live holds those sets anyway, and a writer that needs to
// grow a shared set clones it first, so the snapshot's view never
// changes. Every other snapshot — Solve's, and each one a non-resumable
// Session publishes — outlives the solver it came from, so it is frozen:
// its sets are copied into one exactly sized slab with no pool (see
// pts.Freeze), and it holds its solution and nothing of the solver's
// element pools. Either way it keeps one set per non-empty solution,
// found through a per-variable slot table, so variables that share a
// representative or have empty sets cost no set of their own.
//
// A Snapshot stays valid forever — dropping every reference releases it
// to the garbage collector.
type Snapshot struct {
	epoch uint64
	reps  []uint32  // variable -> representative
	slot  []uint32  // variable -> its representative's set in sets
	sets  []pts.Set // one per non-empty solution; sets[0] is nil
	ro    bool      // sets admit lock-free concurrent reads (bitmap)
	mu    sync.Mutex
	stats Stats
}

// newSnapshot captures res as epoch e, with frozen copies of its bitmap
// sets when freeze is set and copy-on-write shares otherwise (see
// Snapshot). It runs on the session's update goroutine (or the one-shot
// Solve goroutine): taking the shares and compressing union-find paths
// are writer-side operations.
func newSnapshot(e uint64, res *core.Result, freeze bool) *Snapshot {
	n := res.Prog.NumVars
	sn := &Snapshot{
		epoch: e,
		reps:  make([]uint32, n),
		slot:  make([]uint32, n),
		sets:  []pts.Set{nil},
		ro:    true,
		stats: res.Stats,
	}
	for v := 0; v < n; v++ {
		sn.reps[v] = res.Rep(uint32(v))
	}
	// Representatives (their own representative) fill the slots; every
	// other variable then shares its representative's.
	for v := 0; v < n; v++ {
		if sn.reps[v] != uint32(v) {
			continue
		}
		s := res.PointsTo(uint32(v))
		if s == nil || s.Empty() {
			continue
		}
		if _, ok := pts.AsBitmap(s); !ok {
			sn.ro = false // frozen after the solve; reads serialize on mu
		} else if !freeze {
			s = s.SubtractCopy(nil) // COW share of the backing
		} // else the solver's handle, replaced by its copy below
		sn.slot[v] = uint32(len(sn.sets))
		sn.sets = append(sn.sets, s)
	}
	for v, r := range sn.reps {
		sn.slot[v] = sn.slot[r]
	}
	if freeze {
		pts.Freeze(sn.sets)
	}
	return sn
}

// Epoch returns the fixpoint generation this snapshot captures (1 is the
// initial solve; each successful update increments it).
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// NumVars returns the size of the variable universe at this epoch.
func (sn *Snapshot) NumVars() int { return len(sn.reps) }

// Stats returns the cumulative solver cost counters as of this epoch.
func (sn *Snapshot) Stats() Stats { return sn.stats }

// Rep returns v's constraint-graph representative at this epoch;
// variables with equal representatives provably have identical points-to
// sets. Out-of-range ids are their own representative.
func (sn *Snapshot) Rep(v VarID) VarID {
	if int(v) >= len(sn.reps) {
		return v
	}
	return sn.reps[v]
}

func (sn *Snapshot) setOf(v VarID) pts.Set {
	if int(v) >= len(sn.slot) {
		return nil
	}
	return sn.sets[sn.slot[v]]
}

// PointsTo returns the points-to set of v in ascending order (nil when
// empty or out of range).
func (sn *Snapshot) PointsTo(v VarID) []VarID { return sn.appendPointsTo(nil, v) }

// appendPointsTo appends the points-to set of v to dst in ascending order.
func (sn *Snapshot) appendPointsTo(dst []VarID, v VarID) []VarID {
	s := sn.setOf(v)
	if s == nil {
		return dst
	}
	if !sn.ro {
		sn.mu.Lock()
		defer sn.mu.Unlock()
	}
	return s.AppendTo(dst)
}

// PointsToLen returns |pts(v)| without materializing the set.
func (sn *Snapshot) PointsToLen(v VarID) int {
	s := sn.setOf(v)
	if s == nil {
		return 0
	}
	if !sn.ro {
		sn.mu.Lock()
		defer sn.mu.Unlock()
	}
	return s.Len()
}

// Contains reports whether loc ∈ pts(v).
func (sn *Snapshot) Contains(v, loc VarID) bool {
	s := sn.setOf(v)
	if s == nil {
		return false
	}
	if !sn.ro {
		sn.mu.Lock()
		defer sn.mu.Unlock()
	}
	return pts.ContainsRO(s, loc)
}

// unionInto adds the points-to set of representative rep to dst. A bitmap
// snapshot's sets are read in place, lock-free (IorWith only reads its
// argument); any other representation is read under mu.
func (sn *Snapshot) unionInto(dst *bitmap.Bitmap, rep VarID) {
	s := sn.sets[sn.slot[rep]]
	if s == nil {
		return
	}
	if b, ok := pts.AsBitmap(s); ok && sn.ro {
		dst.IorWith(b)
		return
	}
	sn.mu.Lock()
	defer sn.mu.Unlock()
	s.ForEach(func(x uint32) bool {
		dst.Set(x)
		return true
	})
}

// Result wraps sn in the Result query API, pinning client analyses
// (CallGraph, ComputeModRef) to this epoch regardless of concurrent
// session updates.
func (sn *Snapshot) Result() *Result { return &Result{snap: sn} }

// Alias reports whether a and b may alias (their points-to sets
// intersect).
func (sn *Snapshot) Alias(a, b VarID) bool {
	sa, sb := sn.setOf(a), sn.setOf(b)
	if sa == nil || sb == nil {
		return false
	}
	if !sn.ro {
		sn.mu.Lock()
		defer sn.mu.Unlock()
	}
	return sa.Intersects(sb)
}

// Session owns a resident pointer analysis: a program, its live solver
// state, and the latest published Snapshot. One goroutine at a time may
// apply updates; any number of goroutines may call Snapshot (and query
// the result) concurrently with an in-flight update — readers always see
// the last published epoch, never a partial solution.
//
// When the configuration supports it (Naive or LCD, bitmap sets, no
// offline substitution pass — HVN/HU/OVS — and sequential; see the
// DESIGN.md incremental-analysis section), a
// monotone update (only additions) re-seeds the worklist with the
// constraints it touches and resumes the warm fixpoint, which is the
// whole point of keeping the session resident. Every other case — any
// removal, or configurations whose offline substitutions (OVS), internal
// caches (HT/PKH/PKW/BLQ) or shared BDD state are not resumable — falls
// back to an automatic from-scratch replay of the edited program. Both
// paths end with the same published solution; only the work differs.
type Session struct {
	opts      Options
	resumable bool
	freeze    bool // publish frozen snapshots (see Snapshot)

	mu       sync.Mutex // serializes updates and guards the fields below
	prog     *Program   // session-owned (cloned at NewSession)
	live     *core.Live // warm solver state; nil when not resumable or tainted
	offline  offlineStats
	epoch    uint64
	resumed  int64 // updates absorbed by resuming the fixpoint
	replayed int64 // updates that replayed from scratch
	closed   bool

	cur atomic.Pointer[Snapshot]
}

// resumableConfig reports whether o supports in-place monotone resumption
// (see Session). The offline substitution passes (HVN, HU, OVS) are
// excluded because their variable substitutions are equivalences of the
// *current* program: an added constraint can separate two substituted
// variables, so pre-unions taken at epoch 1 would over-collapse later
// epochs. Updates under these configurations replay from scratch (and
// re-run the offline pipeline on the edited program).
func resumableConfig(o Options) bool {
	algOK := o.Algorithm == "" || o.Algorithm == Naive || o.Algorithm == LCD
	ptsOK := o.Pts == "" || o.Pts == Bitmap
	// Parallel solving (Workers ≥ 2) is excluded: the live resume path
	// keeps a sequential worklist warm, and the engine's owner-sharded
	// state is not retained between solves. Parallel sessions replay each
	// update through solveOnce, which still honors Workers.
	return algOK && ptsOK && !o.HVN && !o.HU && !o.OVS && o.Workers < 2
}

// coreLiveOptions translates o for core.NewLive.
func coreLiveOptions(o Options) core.Options {
	copts := core.Options{
		DiffProp: o.DiffProp,
		Memo:     o.Memo,
		Progress: o.Progress,
		Metrics:  o.Metrics,
	}
	if o.Algorithm == Naive {
		copts.Algorithm = core.Naive
	} else {
		copts.Algorithm = core.LCD
	}
	copts.WithHCD = o.HCD // table computed (per replay) inside NewLive
	return copts
}

// NewSession solves p under ctx and returns a resident session at epoch 1.
// p is deep-copied: later edits flow exclusively through Update, and the
// caller's program is never touched.
func NewSession(ctx context.Context, p *Program, o Options) (*Session, error) {
	return newSession(ctx, p.Clone(), o, false)
}

// newSession is NewSession without the defensive clone; the one-shot
// Solve wrapper uses it directly since its session never updates, and
// sets oneShot so that its snapshot is frozen: the session and its Live
// are dropped as soon as Solve returns.
func newSession(ctx context.Context, p *Program, o Options, oneShot bool) (*Session, error) {
	if o.Algorithm == "" {
		o.Algorithm = LCD
	}
	if o.Pts == "" {
		o.Pts = Bitmap
	}
	resumable := resumableConfig(o)
	s := &Session{opts: o, resumable: resumable, freeze: oneShot || !resumable, prog: p}
	if s.resumable {
		live, err := core.NewLive(ctx, p, coreLiveOptions(o))
		if err != nil {
			return nil, err
		}
		live.Finalize(o.Metrics)
		s.live = live
		s.publish(live.Result())
	} else {
		inner, off, err := solveOnce(ctx, p, o)
		if err != nil {
			return nil, err
		}
		s.offline = off
		s.publish(inner)
	}
	return s, nil
}

// publish captures res as the next epoch (see newSnapshot). Callers hold
// s.mu (or are still constructing the session).
func (s *Session) publish(res *core.Result) *Snapshot {
	s.epoch++
	sn := newSnapshot(s.epoch, res, s.freeze)
	s.cur.Store(sn)
	if m := s.opts.Metrics; m != nil {
		m.SetCounter("session_epoch", int64(s.epoch))
		m.SetCounter("session_updates_resumed", s.resumed)
		m.SetCounter("session_updates_replayed", s.replayed)
	}
	return sn
}

// Snapshot returns the latest published epoch. It never blocks, in
// particular not on an in-flight Update.
func (s *Session) Snapshot() *Snapshot { return s.cur.Load() }

// Result wraps the latest snapshot in the query API shared with the
// one-shot entry points.
func (s *Session) Result() *Result {
	s.mu.Lock()
	off := s.offline
	s.mu.Unlock()
	return &Result{snap: s.Snapshot(), OVSStats: off.ovs, HVNStats: off.hvn, HUStats: off.hu}
}

// Epoch returns the latest published epoch number.
func (s *Session) Epoch() uint64 { return s.Snapshot().Epoch() }

// NumVars returns the current size of the variable universe — the first
// id a Delta's fresh variables will receive.
func (s *Session) NumVars() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prog.NumVars
}

// Program returns a deep copy of the session's current program (as edited
// by every applied Update).
func (s *Session) Program() *Program {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prog.Clone()
}

// UpdateStats reports how updates have been absorbed so far: resumed
// counts monotone deltas solved by resuming the warm fixpoint, replayed
// counts from-scratch replays (removals, non-resumable configurations,
// and recovery after a canceled update).
func (s *Session) UpdateStats() (resumed, replayed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resumed, s.replayed
}

// Close marks the session closed; later Updates fail. Snapshots already
// published (and the session's solved state) remain valid — Close exists
// so daemons can fence the update path during shutdown, not to free
// memory, which the garbage collector handles once references drop.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Update applies d to the program, brings the solution to the new least
// fixpoint under ctx, and publishes (and returns) the next epoch's
// Snapshot. Concurrent readers of previous snapshots are unaffected.
//
// On a validation error the program is left exactly as before. On a
// solve error (cancellation mid-update) the published snapshot stays at
// the previous epoch and the warm state is discarded, so the next Update
// replays from scratch; the program KEEPS the edit (the delta was
// accepted, only its solving was interrupted).
func (s *Session) Update(ctx context.Context, d Delta) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}

	// Stage the edit with rollback-by-truncation: deltas only append to
	// the universe, and the constraint filter below swaps in a fresh
	// slice, so restoring the old lengths/headers undoes everything.
	oldNum, oldNames, oldSpan := s.prog.NumVars, len(s.prog.Names), len(s.prog.Span)
	oldCons := s.prog.Constraints
	for _, name := range d.AddVars {
		s.prog.AddVar(name)
	}
	for _, f := range d.AddFuncs {
		s.prog.AddFunc(f.Name, f.NumParams)
	}
	removed := 0
	if len(d.Remove) > 0 {
		rm := make(map[Constraint]struct{}, len(d.Remove))
		for _, c := range d.Remove {
			rm[c] = struct{}{}
		}
		kept := make([]Constraint, 0, len(s.prog.Constraints))
		for _, c := range s.prog.Constraints {
			if _, hit := rm[c]; hit {
				removed++
				continue
			}
			kept = append(kept, c)
		}
		s.prog.Constraints = kept
	}
	firstNew := len(s.prog.Constraints)
	s.prog.Constraints = append(s.prog.Constraints, d.Add...)
	if err := s.prog.Validate(); err != nil {
		s.prog.Constraints = oldCons
		s.prog.NumVars = oldNum
		s.prog.Names = s.prog.Names[:oldNames]
		s.prog.Span = s.prog.Span[:oldSpan]
		return nil, fmt.Errorf("%w: %v", ErrInvalidDelta, err)
	}

	switch {
	case s.live != nil && removed == 0:
		// Monotone delta over warm state: resume the fixpoint.
		if err := s.live.Add(ctx, s.prog.Constraints[firstNew:]); err != nil {
			// Partially propagated state is a *subset* of the new
			// fixpoint but may exceed the old one: unusable either
			// way. Drop it; the old snapshot stays current.
			s.live = nil
			return nil, err
		}
		s.resumed++
		return s.publish(s.live.Result()), nil
	case s.resumable:
		// Coarse invalidation: rebuild warm state from scratch.
		live, err := core.NewLive(ctx, s.prog, coreLiveOptions(s.opts))
		if err != nil {
			return nil, err
		}
		s.live = live
		s.replayed++
		return s.publish(live.Result()), nil
	default:
		inner, off, err := solveOnce(ctx, s.prog, s.opts)
		if err != nil {
			return nil, err
		}
		s.offline = off
		s.replayed++
		return s.publish(inner), nil
	}
}
