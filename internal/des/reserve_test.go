package des

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// silentOp is a completion in the style of a GPU op: its Run fires sig,
// and logs only if someone asked to watch it before it completed.
type silentOp struct {
	tag     string
	sig     *Signal
	t       Ticket // its reservation, when reserved
	watched bool
	log     func(string)
}

func (o *silentOp) Run() {
	if o.watched {
		o.log(o.tag + " done")
	}
	o.sig.Fire()
}

// silentTrace runs a seeded random program — processes sleeping, waiting
// on timed and hand-fired signals, scheduling and cancelling callbacks
// and Runners, one Kill, one process stuck for good — first up to a
// horizon and then to the end, and returns one line per process resume
// and per visible callback, with the final clock, pending count and
// error after each run. Some draws complete a silentOp: with reserve
// false it is queued by ScheduleRunner; with reserve true it is a
// Reserve that is armed only if the program watches it, at once or
// later while it is still in flight. Both forms draw the same random
// numbers, so their traces must be identical.
func silentTrace(seed int64, reserve bool) (trace string, unarmed int) {
	var b strings.Builder
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	logf := func(tag string) { fmt.Fprintf(&b, "%d %s\n", int64(e.Now()), tag) }
	ns := func(n int) time.Duration { return time.Duration(rng.Intn(n)) }

	var (
		procs   []*Proc
		ops     []*silentOp
		handoff []*Signal
		events  []Event
		nfn     int
		killed  bool
		stuck   bool
	)
	passed := func(o *silentOp) bool {
		if reserve {
			return e.Passed(o.t)
		}
		return o.sig.Fired()
	}
	watch := func(o *silentOp) {
		o.watched = true
		if reserve {
			e.Arm(o.t, o)
		}
	}
	body := func(steps int) func(*Proc) {
		return func(p *Proc) {
			id := fmt.Sprintf("p%d", p.ID())
			defer func() {
				if r := recover(); r != nil {
					k, ok := r.(Killed)
					if !ok {
						panic(r)
					}
					logf(id + " killed: " + k.Reason)
				}
			}()
			logf(id + " start")
			for i := 0; i < steps; i++ {
				switch n := rng.Intn(100); {
				case n < 30:
					p.Sleep(ns(6))
					logf(id + " slept")
				case n < 50:
					nfn++
					o := &silentOp{tag: fmt.Sprintf("op%d", nfn), sig: e.NewSignal(fmt.Sprintf("op%d", nfn)), log: logf}
					ops = append(ops, o)
					at := e.Now() + ns(12)
					if reserve {
						o.t = e.Reserve(at)
					} else {
						e.ScheduleRunner(at, o)
					}
					if rng.Intn(4) == 0 {
						watch(o)
					}
				case n < 60:
					if len(ops) > 0 {
						o := ops[rng.Intn(len(ops))]
						if passed(o) {
							logf(id + " finds " + o.tag + " passed")
							break
						}
						if !o.watched {
							watch(o)
						}
						p.Wait(o.sig)
						logf(id + " waited " + o.tag)
					}
				case n < 65:
					if len(ops) > 0 {
						o := ops[rng.Intn(len(ops))]
						logf(fmt.Sprintf("%s queries %s: %v", id, o.tag, passed(o)))
					}
				case n < 70:
					s := e.NewSignal(id + ".timed")
					s.FireAt(e.Now() + ns(9))
					p.Wait(s)
					logf(id + " woke")
				case n < 75:
					s := e.NewSignal(id + ".handoff")
					handoff = append(handoff, s)
					s.FireAt(e.Now() + 20)
					p.Wait(s)
					logf(id + " handed")
				case n < 80:
					if len(handoff) > 0 {
						s := handoff[0]
						handoff = handoff[1:]
						s.Fire()
						logf(id + " fired " + s.Name())
					}
				case n < 87:
					nfn++
					tag := fmt.Sprintf("fn%d", nfn)
					events = append(events, e.ScheduleAfter(ns(9), func() { logf(tag) }))
				case n < 91:
					if len(events) > 0 {
						j := rng.Intn(len(events))
						events[j].Cancel()
						events = append(events[:j], events[j+1:]...)
					}
				case n < 95:
					nfn++
					r := &tagRunner{tag: fmt.Sprintf("run%d", nfn), log: logf}
					events = append(events, e.ScheduleRunner(e.Now()+ns(9), r))
				case n < 98:
					if !killed {
						killed = true
						victim := procs[rng.Intn(len(procs))]
						logf(fmt.Sprintf("%s kills p%d", id, victim.ID()))
						victim.Kill("seeded")
					}
				default:
					if !stuck {
						stuck = true
						logf(id + " sticks")
						p.Wait(e.NewSignal(id + ".never"))
					}
				}
			}
			logf(id + " exit")
		}
	}
	for i := 0; i < 5; i++ {
		procs = append(procs, e.Spawn(fmt.Sprintf("rank%d", i), body(30)))
	}
	err := e.RunFor(30)
	fmt.Fprintf(&b, "horizon now=%d pending=%d err=%v\n", int64(e.Now()), e.Pending(), err)
	err = e.Run()
	fmt.Fprintf(&b, "end now=%d pending=%d err=%v\n", int64(e.Now()), e.Pending(), err)
	for _, o := range ops {
		if !o.watched {
			unarmed++
		}
	}
	return b.String(), unarmed
}

// TestReserveMatchesScheduleRunner is the property behind silent
// completions: replacing ScheduleRunner with Reserve, armed only when
// watched, changes nothing observable — not the dispatch order, what
// Passed reports against a fired signal, the clock at a horizon stop,
// a deadlock or a drain, nor the pending count or the error text.
func TestReserveMatchesScheduleRunner(t *testing.T) {
	var unarmed, deadlocks, horizons int
	for seed := int64(1); seed <= 60; seed++ {
		want, _ := silentTrace(seed, false)
		got, n := silentTrace(seed, true)
		unarmed += n
		if strings.Contains(want, "deadlock") {
			deadlocks++
		}
		if strings.Contains(want, "horizon 30ns reached") {
			horizons++
		}
		if got != want {
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("seed %d: reserved run diverges at line %d: got %q, want %q", seed, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("seed %d: reserved trace has %d lines, ScheduleRunner trace %d", seed, len(gl), len(wl))
		}
	}
	// The property is vacuous unless the programs reach every ending with
	// silent completions outstanding.
	if unarmed < 100 || deadlocks == 0 || horizons == 0 {
		t.Errorf("programs too tame: %d unarmed reservations, %d deadlocks, %d horizon stops", unarmed, deadlocks, horizons)
	}
}

// TestReserveEndOfRun checks the clock and pending count a silent
// reservation leaves at each way a run ends: a horizon stop advances the
// clock to the latest reservation within it and counts those beyond; a
// drain advances it to the latest one.
func TestReserveEndOfRun(t *testing.T) {
	e := NewEngine()
	e.Reserve(5)
	e.Reserve(15)
	e.Reserve(25)
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	err := e.RunFor(20)
	var h *HorizonError
	if !errors.As(err, &h) || h.Pending != 1 || e.Now() != 15 || e.Pending() != 1 {
		t.Fatalf("RunFor(20) = %v, Now %v, Pending %d; want a horizon error with 1 pending at 15ns", err, e.Now(), e.Pending())
	}
	if err := e.Run(); err != nil || e.Now() != 25 || e.Pending() != 0 {
		t.Fatalf("Run = %v, Now %v, Pending %d; want nil at 25ns with none pending", err, e.Now(), e.Pending())
	}
	t2 := e.Reserve(30)
	if e.Passed(t2) {
		t.Error("a new reservation reads as passed")
	}
	e.Arm(t2, runnerFunc(func() {}))
	if e.Pending() != 1 {
		t.Errorf("Pending after Arm = %d, want 1 (armed, not double-counted)", e.Pending())
	}
	if err := e.Run(); err != nil || e.Now() != 30 || !e.Passed(t2) {
		t.Errorf("Run = %v, Now %v, Passed %v; want nil at 30ns, passed", err, e.Now(), e.Passed(t2))
	}
}

type runnerFunc func()

func (f runnerFunc) Run() { f() }
