package des

import "time"

// Signal is a one-shot completion notification in virtual time. It starts
// unfired; Fire marks it fired and wakes every waiting process. Signals are
// the basic building block for modelling asynchronous completions (GPU
// operations, MPI requests).
//
// The common case of a single waiter is stored inline (waiter0), so a
// plain submit/wait round-trip allocates nothing beyond the Signal itself
// — and callers that embed the Signal in a pooled struct (see InitSignal)
// allocate nothing at all.
type Signal struct {
	e       *Engine
	name    string
	fired   bool
	firedAt time.Duration
	waiter0 *Proc
	waiters []*Proc // overflow beyond the first waiter, in wait order
	andThen []func()
}

// NewSignal creates an unfired signal. The name appears in deadlock
// diagnostics.
func (e *Engine) NewSignal(name string) *Signal {
	return &Signal{e: e, name: name}
}

// InitSignal (re)initialises s in place as an unfired signal — for signals
// embedded in recycled structs, avoiding the NewSignal allocation.
func (e *Engine) InitSignal(s *Signal, name string) {
	*s = Signal{e: e, name: name}
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// FiredAt returns the virtual time the signal fired at. It is only
// meaningful once Fired reports true.
func (s *Signal) FiredAt() time.Duration { return s.firedAt }

// Name returns the diagnostic name.
func (s *Signal) Name() string { return s.name }

// addWaiter appends p in wait order, first waiter inline.
func (s *Signal) addWaiter(p *Proc) {
	if s.waiter0 == nil && len(s.waiters) == 0 {
		s.waiter0 = p
		return
	}
	s.waiters = append(s.waiters, p)
}

// Fire marks the signal fired at the current virtual time and schedules
// every waiter to resume (at the same timestamp, in wait order). Firing an
// already-fired signal is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	s.firedAt = s.e.now
	if s.waiter0 != nil {
		s.e.scheduleStep(s.e.now, s.waiter0)
		s.waiter0 = nil
	}
	for _, p := range s.waiters {
		s.e.scheduleStep(s.e.now, p)
	}
	s.waiters = nil
	for _, fn := range s.andThen {
		fn()
	}
	s.andThen = nil
}

// FireAt schedules the signal to fire at virtual time at.
func (s *Signal) FireAt(at time.Duration) { s.e.scheduleFire(at, s) }

// OnFire registers fn to run when the signal fires (immediately if it has
// already fired), before waiters resume. fn runs inside Fire — in the
// process calling Fire, or for FireAt in whichever of Run or a process
// runs the event loop — so it must not block, and must not call
// t.FailNow or runtime.Goexit.
func (s *Signal) OnFire(fn func()) {
	if s.fired {
		fn()
		return
	}
	s.andThen = append(s.andThen, fn)
}
