// Package des implements a deterministic discrete-event simulation engine
// with virtual time and cooperatively scheduled processes.
//
// The engine owns a monotone virtual clock and a priority queue of events.
// Simulated actors (MPI ranks, host threads) run as processes: goroutines
// scheduled cooperatively so that exactly one of them — or the caller of
// Run — executes at any moment. This gives race-free, fully deterministic
// simulations whose outcome depends only on the event timestamps (with
// FIFO sequence numbers breaking ties), never on wall-clock timing.
//
// There is no engine goroutine. Control is a baton: whoever holds it is
// the only goroutine touching the engine. Run holds it first and runs the
// event loop on the caller's goroutine until the first process resume,
// hands the baton to that process and waits for the loop to end. A process
// that blocks (Sleep, Wait) or finishes runs the event loop itself, on its
// own goroutine: it pops (at, seq)-ordered entries and runs plain
// callbacks (Schedule, ScheduleRunner, FireAt, OnFire) inline until the
// next process resume. If that resume is its own it simply returns — no
// goroutine switch; otherwise it wakes the target and parks — one switch.
// Whoever finds the loop over (queue drained, horizon reached, a process
// panicked) wakes Run, which reports. Because pop order is a pure function
// of (at, seq) and not of which goroutine pops, virtual-time behaviour is
// exactly that of a single dispatcher loop.
//
// Consequently event callbacks run on whichever goroutine holds the baton
// — the caller of Run or any process goroutine, including one whose
// function has already returned. They must not depend on goroutine
// identity: no t.FailNow/t.Fatal, no runtime.Goexit. A callback that
// panics is re-raised from Run on the caller's goroutine.
//
// All timestamps are time.Duration offsets from the start of the run.
//
// Event storage is allocation-free in steady state: event payloads live in
// an engine-owned slot pool recycled through a free list, the priority
// queue is a 4-ary implicit heap over a flat slice of (at, seq, slot)
// entries, and cancelled events are dropped lazily when they surface at
// the root. Because every entry carries a unique sequence number, the
// (at, seq) order is total and the pop order is independent of the heap's
// internal layout.
package des

import (
	"fmt"
	"sort"
	"time"
)

// Engine is a discrete-event simulation kernel. The zero value is not
// usable; create engines with NewEngine.
//
// An Engine is not safe for concurrent use from multiple goroutines.
// Processes spawned on the engine, and the callbacks scheduled on it, may
// freely use the engine because only the goroutine holding the baton runs.
type Engine struct {
	now     time.Duration
	seq     uint64
	heap    []heapEnt
	slots   []slot
	free    []int32 // free slot indexes, LIFO
	pending int     // live (scheduled, uncancelled, unfired) events
	live    int     // processes that have been spawned and not yet finished
	nextID  int
	err     error // first process panic, sticky

	// Set by run for the duration of one Run/RunFor, read by whichever
	// goroutine holds the baton.
	horizon time.Duration // < 0: none
	ended   chan struct{} // a process goroutine found the loop over
	endErr  error         // why: nil, *HorizonError, *DeadlockError or err
	cbPanic any           // callback panic caught on a process goroutine

	procs []*Proc // every spawned process, for deadlock reports
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{ended: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Runner is an event payload dispatched without a closure: scheduling a
// Runner stores only the interface pair in the event slot, so callers that
// already own a heap object (a GPU op, a request) can be completed with
// zero per-event allocations.
type Runner interface{ Run() }

// slotKind discriminates the payload stored in an event slot. Dedicated
// kinds for the hot paths (process resume, signal fire, Runner) avoid the
// closure allocation a func()-only design would force on every Sleep,
// Wait wake-up and async completion.
type slotKind uint8

const (
	slotFree slotKind = iota
	slotFn
	slotStep // resume slot.proc
	slotFire // fire slot.sig
	slotRun  // run slot.run
)

// slot holds one scheduled event's payload. Slots are recycled through the
// engine free list; gen increments on every free so stale Event handles
// (and stale heap entries for cancelled events) can be recognised.
type slot struct {
	fn   func()
	proc *Proc
	sig  *Signal
	run  Runner
	gen  uint32
	kind slotKind
}

// heapEnt is one priority-queue entry: the ordering key inline (no pointer
// chase, no interface boxing) plus the slot it resolves to. gen snapshots
// the slot generation at schedule time; a mismatch at pop time means the
// event was cancelled and the entry is dropped.
type heapEnt struct {
	at   time.Duration
	seq  uint64
	slot int32
	gen  uint32
}

// Event is a handle to a scheduled callback. It can be cancelled before it
// fires. The zero Event is inert: Cancel on it is a no-op.
type Event struct {
	e    *Engine
	at   time.Duration
	slot int32
	gen  uint32
}

// At returns the virtual time the event is scheduled for.
func (ev Event) At() time.Duration { return ev.at }

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or cancelling twice) is a no-op: the slot generation has moved on
// and the handle no longer matches.
func (ev Event) Cancel() {
	e := ev.e
	if e == nil {
		return
	}
	s := &e.slots[ev.slot]
	if s.gen != ev.gen || s.kind == slotFree {
		return
	}
	e.freeSlot(ev.slot)
	e.pending--
	// The heap entry stays put; the event loop drops it lazily when it
	// reaches the root and its generation no longer matches.
}

// allocSlot returns a free slot index, growing the pool only when the free
// list is empty.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return i
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// freeSlot recycles a slot: clear payload references (so fired events do
// not retain closures or processes), bump the generation, push on the free
// list.
func (e *Engine) freeSlot(i int32) {
	s := &e.slots[i]
	s.fn = nil
	s.proc = nil
	s.sig = nil
	s.run = nil
	s.kind = slotFree
	s.gen++
	e.free = append(e.free, i)
}

// push enqueues slot i at time at with the next sequence number.
func (e *Engine) push(at time.Duration, i int32) {
	e.heap = append(e.heap, heapEnt{at: at, seq: e.seq, slot: i, gen: e.slots[i].gen})
	e.seq++
	e.pending++
	e.siftUp(len(e.heap) - 1)
}

// Schedule registers fn to run at virtual time at. Times before the current
// clock are clamped to the current clock (the event runs "immediately",
// after already-queued events with the same timestamp).
func (e *Engine) Schedule(at time.Duration, fn func()) Event {
	if at < e.now {
		at = e.now
	}
	i := e.allocSlot()
	s := &e.slots[i]
	s.kind = slotFn
	s.fn = fn
	e.push(at, i)
	return Event{e: e, at: at, slot: i, gen: s.gen}
}

// ScheduleAfter registers fn to run d from now. Negative d is clamped to 0.
func (e *Engine) ScheduleAfter(d time.Duration, fn func()) Event {
	return e.Schedule(e.now+d, fn)
}

// ScheduleRunner registers r.Run to run at virtual time at, storing only
// the interface pair — no closure allocation.
func (e *Engine) ScheduleRunner(at time.Duration, r Runner) Event {
	if at < e.now {
		at = e.now
	}
	i := e.allocSlot()
	s := &e.slots[i]
	s.kind = slotRun
	s.run = r
	e.push(at, i)
	return Event{e: e, at: at, slot: i, gen: s.gen}
}

// scheduleStep enqueues a process resume — the Sleep/Fire/Spawn/Kill hot
// path, allocation-free.
func (e *Engine) scheduleStep(at time.Duration, p *Proc) {
	if at < e.now {
		at = e.now
	}
	i := e.allocSlot()
	e.slots[i].kind = slotStep
	e.slots[i].proc = p
	e.push(at, i)
}

// scheduleFire enqueues a signal fire (FireAt), allocation-free.
func (e *Engine) scheduleFire(at time.Duration, sig *Signal) {
	if at < e.now {
		at = e.now
	}
	i := e.allocSlot()
	e.slots[i].kind = slotFire
	e.slots[i].sig = sig
	e.push(at, i)
}

// DeadlockError is returned by Run when no events remain but processes are
// still blocked.
type DeadlockError struct {
	Now     time.Duration
	Blocked []string // "name: reason" per blocked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("des: deadlock at %v: %d process(es) blocked: %v", d.Now, len(d.Blocked), d.Blocked)
}

// HorizonError is returned by RunFor when the horizon is reached with work
// still pending.
type HorizonError struct {
	Horizon time.Duration
	Pending int
}

func (h *HorizonError) Error() string {
	return fmt.Sprintf("des: horizon %v reached with %d event(s) pending", h.Horizon, h.Pending)
}

// Run executes events until the queue is empty and all processes have
// finished. It returns a *DeadlockError if processes remain blocked with no
// pending events, or the panic value of the first process that panicked.
// A panic in an event callback panics out of Run, on the caller's
// goroutine, whichever goroutine the callback ran on.
func (e *Engine) Run() error { return e.run(-1) }

// RunFor executes events like Run but stops with a *HorizonError once the
// clock would exceed horizon, leaving the queue and every blocked process
// as they were: a later Run or RunFor picks up where this one stopped. It
// is a safety net for workloads under test.
func (e *Engine) RunFor(horizon time.Duration) error { return e.run(horizon) }

// run holds the baton until the first process resume, passes it on and
// waits for whichever goroutine ends the loop.
func (e *Engine) run(horizon time.Duration) error {
	e.horizon = horizon
	if p := e.dispatch(); p != nil {
		p.resume <- struct{}{}
		<-e.ended
		if r := e.cbPanic; r != nil {
			e.cbPanic = nil
			panic(r)
		}
	}
	return e.endErr
}

// dispatch is the event loop. It runs on the goroutine holding the baton:
// callbacks run inline, and the first resume of a live process ends it —
// dispatch returns that process, marked runnable, and the caller passes
// the baton on (or keeps it, if the process is itself). A nil return means
// the loop is over and e.endErr says why.
func (e *Engine) dispatch() *Proc {
	for e.err == nil && len(e.heap) > 0 {
		root := e.heap[0]
		s := &e.slots[root.slot]
		if s.gen != root.gen {
			// Cancelled: the slot moved on. Drop the stale entry.
			e.popRoot()
			continue
		}
		if e.horizon >= 0 && root.at > e.horizon {
			// Next event is beyond the horizon. Report without popping:
			// the queue is left exactly as it was for inspection.
			e.endErr = &HorizonError{Horizon: e.horizon, Pending: e.pending}
			return nil
		}
		e.popRoot()
		e.now = root.at
		e.pending--
		kind, fn, proc, sig, run := s.kind, s.fn, s.proc, s.sig, s.run
		e.freeSlot(root.slot)
		switch kind {
		case slotFn:
			fn()
		case slotStep:
			if proc.done {
				continue // stale wake-up of a finished process
			}
			proc.blockKind = blockNone
			proc.blockSig = nil
			return proc
		case slotFire:
			sig.Fire()
		case slotRun:
			run.Run()
		}
	}
	switch {
	case e.err != nil:
		e.endErr = e.err
	case e.live > 0:
		var blocked []string
		for _, p := range e.procs {
			if !p.done && p.blockKind != blockNone {
				blocked = append(blocked, p.name+": "+p.blockReason())
			}
		}
		sort.Strings(blocked)
		e.endErr = &DeadlockError{Now: e.now, Blocked: blocked}
	default:
		e.endErr = nil
	}
	return nil
}

// quietUntil reports whether no live event is due at or before at and at
// is within the horizon — the condition under which a resume pushed at at
// would be the very next entry popped. Cancelled entries at the root are
// dropped first, as the loop would have dropped them on the way.
func (e *Engine) quietUntil(at time.Duration) bool {
	if e.horizon >= 0 && at > e.horizon {
		return false
	}
	for len(e.heap) > 0 {
		root := e.heap[0]
		if e.slots[root.slot].gen == root.gen {
			return root.at > at
		}
		e.popRoot()
	}
	return true
}

// Pending reports the number of queued (uncancelled) events in O(1).
func (e *Engine) Pending() int { return e.pending }

// The priority queue is a 4-ary implicit min-heap ordered by (at, seq).
// 4-ary halves the tree depth of a binary heap, and because siftDown
// scans the four children of one parent — 96 contiguous bytes, at most
// two cache lines — the extra comparisons are cheaper than the extra
// levels they remove. Sequence numbers are unique, so the order is total
// and pop order never depends on the heap's internal layout.

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ent := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entLess(ent, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
}

// popRoot removes the minimum entry.
func (e *Engine) popRoot() {
	h := e.heap
	n := len(h) - 1
	ent := h[n]
	e.heap = h[:n]
	if n == 0 {
		return
	}
	h = e.heap
	// Sift the former last element down from the root.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if entLess(h[c], h[min]) {
				min = c
			}
		}
		if !entLess(h[min], ent) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ent
}
