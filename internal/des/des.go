// Package des implements a deterministic discrete-event simulation engine
// with virtual time and cooperatively scheduled processes.
//
// The engine owns a monotone virtual clock and a priority queue of events.
// Simulated actors (MPI ranks, host threads) run as processes: coroutines
// (iter.Pull) that Run's goroutine resumes one at a time, so that exactly
// one of them — or Run itself — executes at any moment. This gives
// race-free, fully deterministic simulations whose outcome depends only on
// the event timestamps (with FIFO sequence numbers breaking ties), never
// on wall-clock timing.
//
// There is no engine goroutine, and Run is the only code that resumes a
// process. Run runs the event loop until the first process resume and
// resumes that process. A process that blocks (Sleep, Wait) or finishes
// runs the event loop itself, inside its own coroutine: it pops (at,
// seq)-ordered entries and runs plain callbacks (Schedule, ScheduleRunner,
// FireAt, OnFire) inline until the next process resume. If that resume is
// its own it simply returns; otherwise it names the next process and
// yields to Run, which resumes it — a coroutine switch, not a trip through
// the Go scheduler. A process that finds the loop over (queue drained,
// horizon reached, a process panicked) yields naming no one, and Run
// reports. Because pop order is a pure function of (at, seq) and not of
// which coroutine pops, virtual-time behaviour is exactly that of a single
// dispatcher loop.
//
// Consequently event callbacks run inside whichever of them runs the loop
// — Run or any process, including one whose function has already
// returned. They must not depend on goroutine identity: no
// t.FailNow/t.Fatal, no runtime.Goexit. A callback that panics is
// re-raised from Run on the caller's goroutine. A process body may call
// runtime.Goexit (t.FailNow in a test): iter.Pull passes it on, so it ends
// the goroutine that called Run, and Run does not return.
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
//
// An event can also be reserved rather than queued (Reserve): it takes
// its place in the (at, seq) order but no heap entry, and is queued only
// if someone arms it (Arm). Passed compares a reservation with the
// engine's position in that order, so a completion nobody waits for —
// most GPU ops — costs no dispatch, yet reads exactly as if it had run.
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
// freely use the engine because only one of them, or Run, runs at a time.
type Engine struct {
	now     time.Duration
	seq     uint64
	pos     uint64 // 1 + the seq of the entry run last at now; see Position
	heap    []heapEnt
	slots   []slot
	free    []int32 // free slot indexes, LIFO
	pending int     // live (scheduled, uncancelled, unfired) events
	live    int     // processes that have been spawned and not yet finished
	nextID  int
	err     error // first process panic, sticky

	// reserved holds tickets taken by Reserve and not armed: those not
	// yet passed, plus passed ones awaiting the next prune. Unordered.
	reserved []Ticket

	// Set by run for the duration of one Run/RunFor, read by whichever
	// process runs the event loop.
	horizon time.Duration // < 0: none
	handoff *Proc         // the process Run resumes next; nil: loop over
	endErr  error         // why: nil, *HorizonError, *DeadlockError or err
	cbPanic any           // callback panic caught inside a process

	procs []*Proc // every spawned process, for deadlock reports
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

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
	e.pushAt(at, e.seq, i)
	e.seq++
}

// pushAt enqueues slot i at (at, seq).
func (e *Engine) pushAt(at time.Duration, seq uint64, i int32) {
	e.heap = append(e.heap, heapEnt{at: at, seq: seq, slot: i, gen: e.slots[i].gen})
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

// Ticket is a place in the engine's total event order: the (at, seq)
// key an event is popped by. Reserve hands out tickets; Position reports
// the engine's own place in the same order.
type Ticket struct {
	At  time.Duration
	Seq uint64
}

// Before reports whether t comes strictly before u in the event order.
func (t Ticket) Before(u Ticket) bool {
	return t.At < u.At || t.At == u.At && t.Seq < u.Seq
}

// Reserve takes the place in the event order that ScheduleRunner(at, r)
// would take now — the same clamped time, the same sequence number —
// without queuing anything. Until Arm queues a Runner there, the ticket
// is a silent event: it runs no code, but the engine accounts for it as
// if it were queued. Passed turns true once the engine's position moves
// beyond it, a drained run advances the clock to the latest one, and a
// horizon stop advances the clock to the latest one within the horizon
// and counts those beyond it as pending. A reservation costs no heap
// entry and no slot, so a completion nobody observes — a GPU op nobody
// waits on — costs no dispatch.
func (e *Engine) Reserve(at time.Duration) Ticket {
	if at < e.now {
		at = e.now
	}
	t := Ticket{At: at, Seq: e.seq}
	e.seq++
	if n := len(e.reserved); n == cap(e.reserved) {
		// Full: drop the passed tickets, and grow only if more than half
		// are still outstanding, so appends stay amortised O(1) and a
		// steady state reuses the same array.
		e.pruneReserved()
		if n == 0 || len(e.reserved) > n/2 {
			grown := make([]Ticket, len(e.reserved), max(2*n, 32))
			copy(grown, e.reserved)
			e.reserved = grown
		}
	}
	e.reserved = append(e.reserved, t)
	return t
}

// pruneReserved drops passed tickets from e.reserved, in place.
func (e *Engine) pruneReserved() {
	keep := e.reserved[:0]
	for _, t := range e.reserved {
		if !e.Passed(t) {
			keep = append(keep, t)
		}
	}
	e.reserved = keep
}

// Arm queues r.Run at a ticket Reserve returned, at exactly its (at,
// seq), so it runs where ScheduleRunner would have run it. The ticket
// must not have passed and must not be armed already.
func (e *Engine) Arm(t Ticket, r Runner) {
	// Search from the newest: a ticket armed at once is the last one.
	i := len(e.reserved) - 1
	for i >= 0 && e.reserved[i] != t {
		i--
	}
	if i < 0 || e.Passed(t) {
		panic(fmt.Sprintf("des: Arm of ticket %v, which is passed or not reserved", t))
	}
	last := len(e.reserved) - 1
	e.reserved[i] = e.reserved[last]
	e.reserved = e.reserved[:last]
	j := e.allocSlot()
	s := &e.slots[j]
	s.kind = slotRun
	s.run = r
	e.pushAt(t.At, t.Seq, j)
}

// Position returns the engine's place in the event order: a ticket is
// before it once the engine has run, or passed over, the event at that
// ticket. Inside an event callback or a resumed process it is just past
// the entry being run; after a fast-path Sleep, just past the sequence
// number the Sleep consumed; after a drained run, past every ticket
// handed out.
func (e *Engine) Position() Ticket { return Ticket{At: e.now, Seq: e.pos} }

// Passed reports whether the engine's position has moved beyond t: the
// event at t has run, or — for a reservation nobody armed — would have.
func (e *Engine) Passed(t Ticket) bool { return t.Before(e.Position()) }

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
// goroutine, whichever process the callback ran in.
func (e *Engine) Run() error { return e.run(-1) }

// RunFor executes events like Run but stops with a *HorizonError once the
// clock would exceed horizon, leaving the queue and every blocked process
// as they were: a later Run or RunFor picks up where this one stopped. It
// is a safety net for workloads under test.
func (e *Engine) RunFor(horizon time.Duration) error { return e.run(horizon) }

// run runs the event loop until the first process resume, then resumes
// processes one at a time: each runs until it yields, naming in e.handoff
// the process to resume next, or no one when the loop is over.
func (e *Engine) run(horizon time.Duration) error {
	e.horizon = horizon
	for p := e.dispatch(); p != nil; p = e.handoff {
		e.handoff = nil
		p.next()
	}
	if r := e.cbPanic; r != nil {
		e.cbPanic = nil
		panic(r)
	}
	return e.endErr
}

// dispatch is the event loop. It runs in Run or in the process that just
// blocked or finished: callbacks run inline, and the first resume of a
// live process ends it — dispatch returns that process, marked runnable,
// to be resumed by Run (or to carry on, if it is the caller itself). A nil
// return means the loop is over and e.endErr says why.
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
			// Next event is beyond the horizon. Stop without popping:
			// the queue is left exactly as it was for inspection.
			break
		}
		e.popRoot()
		e.now = root.at
		e.pos = root.seq + 1
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
	if e.err != nil {
		e.endErr = e.err
		return nil
	}
	e.settleReserved()
	switch {
	case e.pending > 0 || len(e.reserved) > 0:
		e.endErr = &HorizonError{Horizon: e.horizon, Pending: e.Pending()}
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

// settleReserved runs the silent events the loop would have popped
// before stopping: the queue is drained, or its next entry lies beyond
// the horizon. The clock advances to the latest reservation within the
// horizon, the position moves past every ticket handed out so far (no
// queued entry is due by the new clock), and only the reservations
// beyond the horizon stay outstanding.
func (e *Engine) settleReserved() {
	keep := e.reserved[:0]
	for _, t := range e.reserved {
		switch {
		case e.horizon >= 0 && t.At > e.horizon:
			keep = append(keep, t)
		case t.At > e.now:
			e.now = t.At
		}
	}
	e.reserved = keep
	e.pos = e.seq
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

// Pending reports the number of queued (uncancelled) events plus the
// reservations not yet passed. It scans the outstanding reservations.
func (e *Engine) Pending() int {
	n := e.pending
	for _, t := range e.reserved {
		if !e.Passed(t) {
			n++
		}
	}
	return n
}

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
