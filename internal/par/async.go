// Package par implements the scheduling half of parallel constraint
// propagation for the inclusion-based solvers — asynchronous
// owner-computes propagation in the spirit of Méndez-Lojo et al.'s
// parallel inclusion-based points-to analysis (OOPSLA 2010). The graph
// half lives in package core, behind AsyncHooks.
//
// The AsyncEngine runs one persistent goroutine per owner, each draining
// its own MPSC mailbox of work batches (points-to deltas, edge inserts,
// post-collapse rechecks) and its own dirty queue, and forwarding
// generated work directly to the destination owners' mailboxes. There is
// no frontier, no round barrier and no merge phase.
//
// Termination is detected with a Dijkstra–Safra-style token ring over the
// owners plus one arbiter participant. Every participant keeps a
// cumulative message counter (sent − received) and a color (black after
// any receive). A token circulates arbiter → owner 0 → … → owner N−1 →
// arbiter; a participant forwards it only when locally passive (mailbox
// empty, no dirty nodes, send buffers flushed), adding its counter and
// staining the token black if it received since the last visit. The
// arbiter declares quiescence after two consecutive clean laps — token
// returned white, arbiter white and passive, and the accumulated counter
// sum exactly zero — which implies no message is in flight and no
// participant holds work. See docs/ALGORITHMS.md §Parallel solving for
// the proof sketch.
//
// Union-find mutation (LCD cycle collapses and the HCD online rule) does
// not partition by owner, so it serializes through the arbiter: owners
// send collapse candidates as ordinary counted messages; the arbiter
// pauses the ring (every owner flushes, acknowledges and parks), runs the
// collapses with exclusive graph access, mails counted recheck batches to
// the owners of every surviving representative, and resumes. Outside a
// pause the owners resolve representatives with uf.FindRO's atomic loads,
// which are safe against the pause-side Union's atomic publication store.
package par

import (
	"context"
	"sync"
	"sync/atomic"

	"antgrass/internal/bitmap"
)

// Batch kinds. Only batchWork participates in the Safra counters: control
// messages (token, pause) neither carry work nor generate any, so they
// cannot invalidate the termination argument.
const (
	batchWork = iota
	batchToken
	batchPause
)

// Delta is one points-to delta message: Bits, flowing along the copy edge
// Src → Dst. Bits is immutable after send — the same payload is shared by
// every successor the sending owner forwarded it to — and receivers only
// read it (IorWith into the destination set). Src rides along for the
// destination-side LCD trigger: a delta that adds no new bits nominates
// (Src, Dst) as a cycle candidate.
type Delta struct {
	Src, Dst uint32
	Bits     *bitmap.Bitmap
	// SrcLen is |pts(Src)| at send time. The receiver cannot read the
	// sender-owned set, so the size rides along for the LCD trigger: a
	// delta that adds nothing nominates (Src, Dst) as a cycle candidate
	// only when the two sets are also the same size — the cross-owner
	// stand-in for LCD's full-set equality check.
	SrcLen uint32
}

// Batch is the message unit of the asynchronous engine: one sender's
// accumulated work for one destination owner (or for the arbiter).
// Batching amortizes the mailbox lock and the Safra counter traffic over
// many payload items.
type Batch struct {
	kind int
	// Deltas, Edges and Rechecks are owner-bound work: points-to deltas,
	// candidate copy edges (src, dst — original ids, routed by the
	// source's representative owner) and representatives to re-examine
	// after a collapse.
	Deltas   []Delta
	Edges    [][2]uint32
	Rechecks []uint32
	// Cands and HCD are arbiter-bound work: LCD cycle candidates
	// (src rep, dst rep) and nodes whose armed HCD tuples should fire.
	Cands [][2]uint32
	HCD   []uint32
	tok   token
}

// token is the Safra ring token. count accumulates the cumulative
// (sent − received) counters of the participants it passed; black records
// that some participant received a message since the token last saw it.
type token struct {
	count int64
	black bool
}

// mailbox is an unbounded MPSC queue: any participant appends under the
// mutex, only the owning participant pops. wake (capacity 1) lets the
// owner park when empty without missing a send. Unbounded is a
// correctness choice, not a convenience: a bounded ring whose sender
// blocks could deadlock the pause protocol (an owner blocked on a full
// peer mailbox can never acknowledge the pause that would let the peer
// drain).
type mailbox struct {
	mu   sync.Mutex
	q    []*Batch
	head int
	hwm  int
	wake chan struct{}
}

func (m *mailbox) put(b *Batch) {
	m.mu.Lock()
	m.q = append(m.q, b)
	if d := len(m.q) - m.head; d > m.hwm {
		m.hwm = d
	}
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *mailbox) tryGet() *Batch {
	m.mu.Lock()
	if m.head >= len(m.q) {
		m.q = m.q[:0]
		m.head = 0
		m.mu.Unlock()
		return nil
	}
	b := m.q[m.head]
	m.q[m.head] = nil
	m.head++
	m.mu.Unlock()
	return b
}

// AsyncHooks is the graph side of the engine, implemented by package
// core. Apply, Step and Flush run on owner goroutines and may only touch
// owner-congruent graph state (plus engine sends); Stash and StashEmpty
// run on the arbiter goroutine; Collapse runs on the arbiter goroutine
// while every owner is parked, with exclusive access to the whole graph.
type AsyncHooks interface {
	// Apply applies one received work batch against owner w's state,
	// forwarding any entry whose representative migrated to another owner.
	Apply(w int, b *Batch)
	// Step processes at most one dirty node of owner w; false means owner
	// w has no local work (a precondition for forwarding the token).
	Step(w int) bool
	// Flush sends owner w's partially filled outgoing batches. Owners are
	// passive only after a clean flush — buffered work counts as local
	// work for the termination argument.
	Flush(w int)
	// Stash records an arbiter-bound candidate batch for the next pause.
	Stash(b *Batch)
	// StashEmpty reports whether no collapse candidates are pending; the
	// arbiter cannot declare quiescence otherwise.
	StashEmpty() bool
	// StashFull reports that enough candidates accumulated to be worth a
	// pause before the token comes around.
	StashFull() bool
	// Collapse runs the stashed collapses under the global pause and
	// mails rechecks; it must leave the stash empty.
	Collapse()
}

// AsyncStats is the engine's own accounting, read after Run returns.
type AsyncStats struct {
	// Messages is the number of counted (work) batches sent; Sent and
	// Recv are the same counter split by side, equal at quiescence.
	Messages, Sent, Recv int64
	// TokenLaps counts completed token circulations; Pauses counts
	// global collapse pauses.
	TokenLaps, Pauses int64
	// MailboxHWM is each participant's mailbox high-water mark (queued
	// batches), owners first, the arbiter last.
	MailboxHWM []int
}

// AsyncEngine runs one solve's asynchronous propagation. Construct with
// NewAsyncEngine, then call Run (which blocks until quiescence,
// cancellation, or hook-requested abort) and finally Stats.
type AsyncEngine struct {
	ctx    context.Context
	owners int
	hooks  AsyncHooks

	mail   []mailbox       // owners + 1; mail[owners] is the arbiter's
	resume []chan struct{} // per-owner pause release, capacity 1
	ackCh  chan struct{}   // pause acknowledgements
	stopCh chan struct{}   // closed exactly once; everyone unwinds
	stop   atomic.Bool
	wg     sync.WaitGroup
	runErr error // written before stopCh closes, read after wg.Wait

	// Safra state. mcount[i] and black[i] are owned by participant i;
	// the token carries sums between participants, so no entry is ever
	// read cross-goroutine.
	mcount []int64
	black  []bool

	sent   atomic.Int64
	recv   atomic.Int64
	laps   atomic.Int64
	pauses int64

	// SendDelay, when non-nil, runs between a message being counted as
	// sent and it landing in the destination mailbox — a test hook that
	// widens the in-flight window the termination detector must tolerate.
	SendDelay func(from, to int)
	// OnQuiet, when non-nil, runs on the arbiter goroutine at the moment
	// of declaration with the global sent/received counters (equal iff no
	// message is in flight) — the counter-invariant check hook.
	OnQuiet func(sent, recv int64)
	// OnLap, when non-nil, runs on the arbiter goroutine after every
	// completed token lap (the async analogue of a round boundary).
	OnLap func(lap int64)
}

// NewAsyncEngine builds an engine with the given owner count. hooks may
// be set after construction via SetHooks (core's hook state needs the
// engine handle to send).
func NewAsyncEngine(ctx context.Context, owners int, hooks AsyncHooks) *AsyncEngine {
	if ctx == nil {
		ctx = context.Background()
	}
	e := &AsyncEngine{
		ctx:    ctx,
		owners: owners,
		hooks:  hooks,
		mail:   make([]mailbox, owners+1),
		resume: make([]chan struct{}, owners),
		ackCh:  make(chan struct{}, owners),
		stopCh: make(chan struct{}),
		mcount: make([]int64, owners+1),
		black:  make([]bool, owners+1),
	}
	for i := range e.mail {
		e.mail[i].wake = make(chan struct{}, 1)
	}
	for i := range e.resume {
		e.resume[i] = make(chan struct{}, 1)
	}
	return e
}

// SetHooks installs the graph hooks; must happen before Run.
func (e *AsyncEngine) SetHooks(h AsyncHooks) { e.hooks = h }

// Owners returns the owner count (the arbiter is not an owner).
func (e *AsyncEngine) Owners() int { return e.owners }

// Arbiter returns the arbiter's participant index (for Send from
// Collapse).
func (e *AsyncEngine) Arbiter() int { return e.owners }

// Send delivers a counted work batch from participant `from` to
// participant `to` (an owner, or Arbiter() for candidates). It runs on
// from's goroutine and never blocks.
func (e *AsyncEngine) Send(from, to int, b *Batch) {
	b.kind = batchWork
	e.mcount[from]++
	e.sent.Add(1)
	if d := e.SendDelay; d != nil {
		d(from, to)
	}
	e.mail[to].put(b)
}

// asyncCtxInterval is how many locally processed units an owner handles
// between cooperative cancellation checks.
const asyncCtxInterval = 4096

// asyncCleanLaps is how many consecutive clean token laps the arbiter
// requires before declaring quiescence.
const asyncCleanLaps = 2

// Run starts the owner goroutines, runs the arbiter on the calling
// goroutine, and returns once the ring is quiescent (nil) or the context
// was canceled (the context's error). The caller must have seeded the
// hooks' dirty state before calling.
func (e *AsyncEngine) Run() error {
	e.wg.Add(e.owners)
	for w := 0; w < e.owners; w++ {
		go e.ownerLoop(w)
	}
	e.arbiterLoop()
	e.wg.Wait()
	return e.runErr
}

// Stats returns the engine's accounting; call after Run returned.
func (e *AsyncEngine) Stats() AsyncStats {
	st := AsyncStats{
		Messages:   e.sent.Load(),
		Sent:       e.sent.Load(),
		Recv:       e.recv.Load(),
		TokenLaps:  e.laps.Load(),
		Pauses:     e.pauses,
		MailboxHWM: make([]int, len(e.mail)),
	}
	for i := range e.mail {
		st.MailboxHWM[i] = e.mail[i].hwm
	}
	return st
}

// finish ends the run: records err (nil for quiescence), then releases
// every participant. Idempotent.
func (e *AsyncEngine) finish(err error) {
	if e.stop.CompareAndSwap(false, true) {
		e.runErr = err
		close(e.stopCh)
	}
}

func (e *AsyncEngine) stopped() bool { return e.stop.Load() }

// ownerLoop is owner w's persistent goroutine: drain the mailbox, then
// local dirty work, then flush and forward any held token, then park.
func (e *AsyncEngine) ownerLoop(w int) {
	defer e.wg.Done()
	m := &e.mail[w]
	var held *Batch
	steps := 0
	for {
		if e.stopped() {
			return
		}
		if b := m.tryGet(); b != nil {
			switch b.kind {
			case batchWork:
				e.mcount[w]--
				e.recv.Add(1)
				e.black[w] = true
				e.hooks.Apply(w, b)
			case batchToken:
				held = b
			case batchPause:
				e.hooks.Flush(w)
				e.ackCh <- struct{}{}
				select {
				case <-e.resume[w]:
				case <-e.stopCh:
					// Abandoned pause: unwind without touching the
					// graph again — the arbiter may still own it.
					return
				}
			}
			continue
		}
		if e.hooks.Step(w) {
			steps++
			if steps >= asyncCtxInterval {
				steps = 0
				if err := e.ctx.Err(); err != nil {
					e.finish(err)
					return
				}
			}
			continue
		}
		// Locally passive: everything generated so far must be visible to
		// the counters before the token moves on.
		e.hooks.Flush(w)
		if held != nil {
			e.forwardToken(w, held)
			held = nil
			continue
		}
		select {
		case <-m.wake:
		case <-e.stopCh:
			return
		case <-e.ctx.Done():
			e.finish(e.ctx.Err())
			return
		}
	}
}

// forwardToken stamps the Safra state of participant w onto the token and
// passes it to the next participant in the ring (owner w+1, or the
// arbiter after the last owner).
func (e *AsyncEngine) forwardToken(w int, t *Batch) {
	t.tok.count += e.mcount[w]
	if e.black[w] {
		t.tok.black = true
		e.black[w] = false
	}
	next := w + 1
	e.mail[next].put(t)
}

// launchToken starts a fresh lap: a white token with a zeroed count,
// handed to owner 0.
func (e *AsyncEngine) launchToken() {
	e.mail[0].put(&Batch{kind: batchToken})
}

// arbiterLoop runs on the Run goroutine: it stashes collapse candidates,
// pauses the ring to apply them, and evaluates each returning token for
// quiescence.
func (e *AsyncEngine) arbiterLoop() {
	a := e.owners
	m := &e.mail[a]
	cleanLaps := 0
	e.launchToken()
	for {
		if e.stopped() {
			return
		}
		b := m.tryGet()
		if b == nil {
			select {
			case <-m.wake:
			case <-e.stopCh:
			case <-e.ctx.Done():
				e.finish(e.ctx.Err())
			}
			continue
		}
		switch b.kind {
		case batchWork:
			e.mcount[a]--
			e.recv.Add(1)
			e.black[a] = true
			e.hooks.Stash(b)
			if e.hooks.StashFull() {
				e.doPause()
			}
		case batchToken:
			lap := e.laps.Add(1)
			total := b.tok.count + e.mcount[a]
			clean := !b.tok.black && !e.black[a] && total == 0 && e.hooks.StashEmpty()
			e.black[a] = false
			if !e.hooks.StashEmpty() {
				// Near-quiescent ring with pending candidates: collapse
				// now. The rechecks it mails dirty the next lap, which
				// restarts the clean-lap count.
				e.doPause()
			}
			if clean {
				cleanLaps++
			} else {
				cleanLaps = 0
			}
			if f := e.OnLap; f != nil {
				f(lap)
			}
			if cleanLaps >= asyncCleanLaps {
				if f := e.OnQuiet; f != nil {
					f(e.sent.Load(), e.recv.Load())
				}
				e.finish(nil)
				return
			}
			e.launchToken()
		}
	}
}

// doPause stops the world: every owner flushes, acknowledges and parks;
// the arbiter then has exclusive graph access for Collapse, after which
// the owners resume. Pause and resume are uncounted control traffic; the
// rechecks Collapse mails are counted like any other work, so a pause can
// never slip past the termination detector.
func (e *AsyncEngine) doPause() {
	e.pauses++
	for w := 0; w < e.owners; w++ {
		e.mail[w].put(&Batch{kind: batchPause})
	}
	for got := 0; got < e.owners; got++ {
		select {
		case <-e.ackCh:
		case <-e.stopCh:
			return // abandoned: parked owners unwind via stopCh
		}
	}
	if e.stopped() {
		return
	}
	e.hooks.Collapse()
	for w := 0; w < e.owners; w++ {
		e.resume[w] <- struct{}{}
	}
}
