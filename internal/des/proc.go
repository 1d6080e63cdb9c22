package des

import (
	"fmt"
	"iter"
	"time"
)

// Proc is a simulated process: a coroutine that only Run resumes, and that
// runs until it blocks with someone else's resume next, or finishes. At
// most one process runs at any moment, and Run's caller waits for as long
// as any does, so processes may use the engine and each other's data
// without locking.
type Proc struct {
	e     *Engine
	id    int
	name  string
	next  func() (struct{}, bool) // resume the coroutine (Run only)
	yield func(struct{}) bool     // give control back to Run
	done  bool

	killed     bool
	killReason string

	// Block-site bookkeeping for deadlock diagnostics. The reason string
	// is only rendered if a deadlock is actually reported, keeping
	// formatting (fmt, string concat) off the Sleep/Wait hot path.
	blockKind uint8
	blockDur  time.Duration
	blockSig  *Signal
}

const (
	blockNone uint8 = iota
	blockSleep
	blockWait
)

// blockReason renders the diagnostic for a blocked process. Cold path:
// called only when building a DeadlockError.
func (p *Proc) blockReason() string {
	switch p.blockKind {
	case blockSleep:
		return fmt.Sprintf("sleeping %v", p.blockDur)
	case blockWait:
		return "waiting on " + p.blockSig.name
	}
	return "blocked"
}

// Killed is the panic value delivered inside a process terminated with
// Kill. The spawner may recover it to implement graceful teardown (a rank
// dying while the rest of the job continues); any other panic value still
// aborts the whole engine.
type Killed struct {
	Reason string
}

func (k Killed) Error() string { return "des: process killed: " + k.Reason }

// Unrecoverable marks the kill signal as something generic recover-and-
// continue guards (e.g. ipm.Monitor.Guard) must re-panic rather than
// swallow: a kill is a control-flow signal, not an internal error.
func (k Killed) Unrecoverable() bool { return true }

// Kill marks the process for termination. Delivery is deterministic: the
// kill is raised as a Killed panic at the process's next scheduling point
// (its current block, or the next Sleep/Wait), via an event at the current
// virtual time, so defers run inside the process. Killing a
// finished or already-killed process is a no-op.
func (p *Proc) Kill(reason string) {
	if p.done || p.killed {
		return
	}
	p.killed = true
	p.killReason = reason
	p.e.scheduleStep(p.e.now, p)
}

// Spawn creates a process executing fn and schedules it to start at the
// current virtual time. fn receives the process handle; when fn returns the
// process terminates.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, id: e.nextID, name: name}
	e.nextID++
	e.live++
	e.procs = append(e.procs, p)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	e.scheduleStep(e.now, p)
	return p
}

// exit is a process's epilogue: record a panic as the engine's error,
// retire the process, and run the event loop to find out whom Run resumes
// next.
func (p *Proc) exit() {
	e := p.e
	if r := recover(); r != nil && e.err == nil {
		e.err = fmt.Errorf("des: process %q panicked: %v", p.name, r)
	}
	p.done = true
	e.live--
	e.handoff = e.dispatchGuarded()
}

// dispatchGuarded is dispatch inside a process. A callback that panics
// there must not unwind into the process's own frames (which may recover,
// and whose epilogue would blame the process): the panic is caught here,
// the loop declared over, and Run re-raises the value on its caller's
// goroutine.
func (e *Engine) dispatchGuarded() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.cbPanic = r
			next = nil
		}
	}()
	return e.dispatch()
}

// block suspends the process until its next resume. The caller records
// its block site in p.blockKind/blockDur/blockSig beforehand. The blocking
// process runs the event loop itself: if the next resume is its own it
// returns without leaving the coroutine; otherwise it names the next
// process (none, when the loop is over) and yields to Run until Run
// resumes it — possibly in a later Run.
func (p *Proc) block() {
	e := p.e
	if next := e.dispatchGuarded(); next != p {
		e.handoff = next
		p.yield(struct{}{})
	}
	if p.killed {
		panic(Killed{Reason: p.killReason})
	}
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's unique id within its engine.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Sleep advances the process by d of simulated time (e.g. host
// computation). Non-positive d yields without advancing the clock, letting
// other same-timestamp events run first.
//
// When nothing else is due at or before the wake-up time, the wake-up is
// within the RunFor horizon and the process has not been killed, the
// resume Sleep would push is the very next entry the loop would pop: every
// queued entry has a smaller sequence number, so it sorts first unless its
// time is strictly later. Sleep then skips the queue — advance the clock,
// consume the sequence number the push would have, return — which leaves
// the engine in exactly the state push-then-pop would have.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.e
	at := e.now + d
	if !p.killed && e.quietUntil(at) {
		e.now = at
		e.seq++
		e.pos = e.seq
		return
	}
	e.scheduleStep(at, p)
	p.blockKind = blockSleep
	p.blockDur = d
	p.block()
}

// Wait blocks the process until the signal fires. If the signal has
// already fired, Wait returns immediately without consuming virtual time.
func (p *Proc) Wait(s *Signal) {
	if s.fired {
		return
	}
	s.addWaiter(p)
	p.blockKind = blockWait
	p.blockSig = s
	p.block()
}

// WaitAll blocks until every signal has fired.
func (p *Proc) WaitAll(sigs ...*Signal) {
	for _, s := range sigs {
		p.Wait(s)
	}
}
