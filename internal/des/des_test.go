package des

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"ipmgo/internal/alloctest"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of FIFO order: %v", got)
		}
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	e := NewEngine()
	var at time.Duration = -1
	e.Schedule(time.Second, func() {
		e.Schedule(0, func() { at = e.Now() }) // in the past
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != time.Second {
		t.Errorf("past event ran at %v, want clamped to 1s", at)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(time.Second, func() { ran = true })
	ev.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("cancelled event ran")
	}
	if e.Now() != 0 {
		t.Errorf("clock advanced to %v for cancelled event", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var marks []time.Duration
	e.Spawn("worker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * time.Millisecond)
			marks = append(marks, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestSignalWakesWaiters(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("done")
	var wakeA, wakeB time.Duration
	e.Spawn("a", func(p *Proc) { p.Wait(s); wakeA = p.Now() })
	e.Spawn("b", func(p *Proc) { p.Wait(s); wakeB = p.Now() })
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		s.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakeA != 5*time.Millisecond || wakeB != 5*time.Millisecond {
		t.Errorf("wake times = %v, %v; want 5ms", wakeA, wakeB)
	}
}

func TestWaitOnFiredSignalReturnsImmediately(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("pre")
	e.Spawn("p", func(p *Proc) {
		s.Fire()
		before := p.Now()
		p.Wait(s)
		if p.Now() != before {
			t.Errorf("Wait on fired signal advanced clock %v -> %v", before, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFireAt(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("later")
	s.FireAt(42 * time.Millisecond)
	var woke time.Duration
	e.Spawn("p", func(p *Proc) { p.Wait(s); woke = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 42*time.Millisecond {
		t.Errorf("woke at %v, want 42ms", woke)
	}
}

func TestOnFireCallbackOrder(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("cb")
	var order []string
	s.OnFire(func() { order = append(order, "cb") })
	e.Spawn("waiter", func(p *Proc) { p.Wait(s); order = append(order, "waiter") })
	e.Spawn("firer", func(p *Proc) { p.Sleep(time.Millisecond); s.Fire() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "cb" || order[1] != "waiter" {
		t.Errorf("order = %v, want [cb waiter]", order)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal("never")
	e.Spawn("stuck", func(p *Proc) { p.Wait(s) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 {
		t.Errorf("blocked = %v, want 1 entry", dl.Blocked)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) { panic("boom") })
	err := e.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestHorizon(t *testing.T) {
	e := NewEngine()
	e.Spawn("looper", func(p *Proc) {
		for {
			p.Sleep(time.Second)
		}
	})
	err := e.RunFor(10 * time.Second)
	var h *HorizonError
	if !errors.As(err, &h) {
		t.Fatalf("err = %v, want HorizonError", err)
	}
	// The blocked process goroutine leaks by design; the engine is dead.
}

func TestWaitAll(t *testing.T) {
	e := NewEngine()
	s1 := e.NewSignal("s1")
	s2 := e.NewSignal("s2")
	s1.FireAt(10 * time.Millisecond)
	s2.FireAt(30 * time.Millisecond)
	var woke time.Duration
	e.Spawn("p", func(p *Proc) { p.WaitAll(s1, s2); woke = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 30*time.Millisecond {
		t.Errorf("woke at %v, want 30ms", woke)
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func(seed int64) []string {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var log []string
		for i := 0; i < 50; i++ {
			i := i
			d := time.Duration(rng.Intn(1000)) * time.Microsecond
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				log = append(log, fmt.Sprintf("%d@%v", i, p.Now()))
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a := run(7)
	b := run(7)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any set of event times, events execute in nondecreasing
// time order and the final clock equals the max event time.
func TestPropEventOrdering(t *testing.T) {
	prop := func(offsets []uint16) bool {
		e := NewEngine()
		var fired []time.Duration
		var max time.Duration
		for _, o := range offsets {
			at := time.Duration(o) * time.Microsecond
			if at > max {
				max = at
			}
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		if len(offsets) > 0 && e.Now() != max {
			return false
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: sleeping a sequence of durations accumulates exactly.
func TestPropSleepAccumulates(t *testing.T) {
	prop := func(ds []uint16) bool {
		e := NewEngine()
		var total time.Duration
		ok := true
		e.Spawn("p", func(p *Proc) {
			for _, d := range ds {
				dur := time.Duration(d) * time.Nanosecond
				total += dur
				p.Sleep(dur)
				if p.Now() != total {
					ok = false
				}
			}
		})
		return e.Run() == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	ev := e.Schedule(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	ev.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending after cancel = %d, want 1", e.Pending())
	}
}

func TestCancelStaleHandleAfterReuse(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(time.Second, func() { t.Error("cancelled event ran") })
	stale.Cancel()
	ran := false
	// The freed slot is reused with a bumped generation; the stale handle
	// must not be able to cancel the new occupant.
	fresh := e.Schedule(2*time.Second, func() { ran = true })
	stale.Cancel()
	stale.Cancel() // double-cancel is a no-op too
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("fresh event did not run after stale Cancel")
	}
	// Cancel after fire is also a no-op and must not free a reused slot.
	fresh.Cancel()
	ran2 := false
	e.Schedule(3*time.Second, func() { ran2 = true })
	fresh.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran2 {
		t.Error("event scheduled after run did not fire")
	}
}

func TestZeroEventCancelIsNoop(t *testing.T) {
	var ev Event
	ev.Cancel() // must not panic
}

func TestHorizonLeavesQueueIntact(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, 3 * time.Second, 5 * time.Second} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	err := e.RunFor(2 * time.Second)
	var h *HorizonError
	if !errors.As(err, &h) {
		t.Fatalf("err = %v, want HorizonError", err)
	}
	if h.Pending != 2 {
		t.Errorf("HorizonError.Pending = %d, want 2", h.Pending)
	}
	if e.Pending() != 2 {
		t.Errorf("Pending after horizon = %d, want 2", e.Pending())
	}
	// The horizon hit must not have mutated the queue: a later Run picks
	// up exactly the remaining events, in order.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 3 * time.Second, 5 * time.Second}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestPendingAfterFireAndCancel(t *testing.T) {
	e := NewEngine()
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	for i := 0; i < 4; i++ {
		evs[i].Cancel()
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending after cancels = %d, want 6", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", e.Pending())
	}
}

// Property: interleaved schedules and cancels preserve (at, seq) order of
// the surviving events.
func TestPropCancelPreservesOrder(t *testing.T) {
	prop := func(offsets []uint16, cancelMask []bool) bool {
		e := NewEngine()
		type rec struct {
			at  time.Duration
			idx int
		}
		var want []rec
		var got []int
		for i, o := range offsets {
			i := i
			at := time.Duration(o) * time.Microsecond
			ev := e.Schedule(at, func() { got = append(got, i) })
			if i < len(cancelMask) && cancelMask[i] {
				ev.Cancel()
				continue
			}
			want = append(want, rec{at, i})
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// scheduleRunOp returns BenchmarkDESScheduleRun's op on a warm engine:
// schedule 1000 events and run them to completion.
func scheduleRunOp(tb testing.TB) func() {
	e := NewEngine()
	fn := func() {}
	round := func() {
		base := e.Now()
		for j := 0; j < 1000; j++ {
			e.Schedule(base+time.Duration(j)*time.Microsecond, fn)
		}
		if err := e.Run(); err != nil {
			tb.Fatal(err)
		}
	}
	round() // grow pool, heap and free list to steady state
	return round
}

// BenchmarkDESScheduleRun measures the steady-state schedule+fire round
// trip on a warm engine (1000 events per op); allocs/op must stay 0.
func BenchmarkDESScheduleRun(b *testing.B) { alloctest.Bench(b, scheduleRunOp(b)) }

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// sleepNextInLine is BenchmarkProcContextSwitch's op, a self-resume: a
// Sleep with nothing else due, so the sleeper is next in line (87 % of
// the resumes of a monitored Amber job).
func sleepNextInLine(p *Proc) { p.Sleep(time.Nanosecond) }

// BenchmarkProcContextSwitch is the self-resume cost.
func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sleepNextInLine(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// spawnEcho spawns the passive half of a signal ping-pong — a process that
// waits for ping, re-arms it and fires pong, rounds times — and returns the
// active half's round trip, to be called from the caller's own process.
// One round trip is two cross-process resumes.
func spawnEcho(e *Engine, rounds int) (roundTrip func(p *Proc)) {
	ping, pong := new(Signal), new(Signal)
	e.InitSignal(ping, "ping")
	e.InitSignal(pong, "pong")
	e.Spawn("echo", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Wait(ping)
			e.InitSignal(ping, "ping")
			pong.Fire()
		}
	})
	return func(p *Proc) {
		ping.Fire()
		p.Wait(pong)
		e.InitSignal(pong, "pong")
	}
}

// BenchmarkProcHandoff is the cross-process resume cost, one hand-off per
// op: two processes alternating through signals, the shape HPL ranks live
// on (45 603 resumes per quick Fig8, only 1 978 of them self-resumes).
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	rounds := (b.N + 1) / 2
	roundTrip := spawnEcho(e, rounds)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			roundTrip(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

type nopRunner struct{}

func (nopRunner) Run() {}

// sleepPastCallback is BenchmarkProcSleepPastCallback's op: a Sleep with
// a Runner due before the wake-up (an async completion landing while the
// host computes), so the sleeper goes through the queue and runs the
// callback inline.
func sleepPastCallback(p *Proc) {
	p.e.ScheduleRunner(p.Now()+time.Nanosecond, nopRunner{})
	p.Sleep(2 * time.Nanosecond)
}

// BenchmarkProcSleepPastCallback is the cost of a Sleep past a callback.
func BenchmarkProcSleepPastCallback(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sleepPastCallback(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// spawnRunOp returns BenchmarkProcSpawn's op on a warm engine: spawn one
// process that sleeps once, and run it to completion.
func spawnRunOp(tb testing.TB) func() {
	e := NewEngine()
	body := func(p *Proc) { p.Sleep(time.Nanosecond) }
	op := func() {
		e.Spawn("p", body)
		if err := e.Run(); err != nil {
			tb.Fatal(err)
		}
	}
	op()
	return op
}

// BenchmarkProcSpawn is the cost of a process's whole life: Spawn, its
// first resume, one Sleep and its exit.
func BenchmarkProcSpawn(b *testing.B) { alloctest.Bench(b, spawnRunOp(b)) }

// The tests below pin the control-transfer semantics: what must hold no
// matter which goroutine runs the event loop.

// A Sleep that is next in line still stops at the horizon: the clock never
// passes it, the wake-up stays queued, and a later RunFor resumes.
func TestSleepNextInLineRespectsHorizon(t *testing.T) {
	e := NewEngine()
	var marks []time.Duration
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Second) // nothing else queued: always next in line
			marks = append(marks, p.Now())
		}
	})
	horizon := 2500 * time.Millisecond
	var h *HorizonError
	if err := e.RunFor(horizon); !errors.As(err, &h) {
		t.Fatalf("err = %v, want HorizonError", err)
	}
	if e.Now() > horizon || e.Now() != 2*time.Second {
		t.Errorf("Now after horizon = %v, want 2s", e.Now())
	}
	if h.Pending != 1 || e.Pending() != 1 {
		t.Errorf("pending = %d (error says %d), want the one queued wake-up", e.Pending(), h.Pending)
	}
	if len(marks) != 2 {
		t.Errorf("marks before horizon = %v, want [1s 2s]", marks)
	}
	if err := e.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(marks) != 5 || marks[4] != 5*time.Second || e.Now() != 5*time.Second {
		t.Errorf("marks = %v, Now = %v; want 1s..5s", marks, e.Now())
	}
}

// runKilled runs fn as a process body and returns the time a Killed panic
// surfaced in it, or -1.
func runKilled(p *Proc, fn func()) (at time.Duration) {
	at = -1
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Killed); !ok {
				panic(r)
			}
			at = p.Now()
		}
	}()
	fn()
	return
}

func TestKillLandsAtNextSchedulingPoint(t *testing.T) {
	t.Run("self", func(t *testing.T) {
		e := NewEngine()
		var first, stale, own time.Duration
		e.Spawn("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			p.Kill("self")
			first = runKilled(p, func() { p.Sleep(time.Second) })
			// A recovered kill stays set, so every later Sleep dies at the
			// process's next resume: here the first Sleep's wake-up, still
			// queued ...
			stale = runKilled(p, func() { p.Sleep(time.Hour) })
			// ... and here, with only the 1h wake-up left in the queue, its
			// own: next in line, but a killed process takes no shortcut.
			own = runKilled(p, func() { p.Sleep(time.Millisecond) })
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if first != time.Millisecond {
			t.Errorf("self-kill surfaced at %v, want 1ms (the Sleep's entry, not its wake-up)", first)
		}
		if stale != 1001*time.Millisecond || own != 1002*time.Millisecond {
			t.Errorf("later Sleeps of a killed process died at %v and %v, want 1.001s and 1.002s", stale, own)
		}
	})
	t.Run("sleeping peer", func(t *testing.T) {
		e := NewEngine()
		died := time.Duration(-1)
		victim := e.Spawn("victim", func(p *Proc) {
			died = runKilled(p, func() { p.Sleep(time.Hour) })
		})
		e.Spawn("killer", func(p *Proc) {
			p.Sleep(time.Second)
			victim.Kill("peer")
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if died != time.Second {
			t.Errorf("victim died at %v, want 1s", died)
		}
		// The victim's own wake-up is now stale: skipped, clock advanced.
		if e.Now() != time.Hour || e.Pending() != 0 {
			t.Errorf("Now = %v, Pending = %d; want 1h, 0", e.Now(), e.Pending())
		}
	})
}

type panicRunner struct{ v any }

func (r panicRunner) Run() { panic(r.v) }

// A callback that panics while a process runs the event loop — in a
// blocked process's Sleep, or in the epilogue of one that has returned —
// panics out of Run on the calling goroutine, not into the process.
func TestCallbackPanicReraisedFromRun(t *testing.T) {
	const at = 5 * time.Millisecond
	kinds := map[string]func(e *Engine, v any){
		"Schedule": func(e *Engine, v any) { e.Schedule(at, func() { panic(v) }) },
		"Runner":   func(e *Engine, v any) { e.ScheduleRunner(at, panicRunner{v}) },
		"OnFire": func(e *Engine, v any) {
			s := e.NewSignal("s")
			s.OnFire(func() { panic(v) })
			s.FireAt(at)
		},
	}
	holders := map[string]func(p *Proc){
		"blocked": func(p *Proc) { p.Sleep(time.Second) },
		"exiting": func(p *Proc) {},
	}
	for kind, arm := range kinds {
		for holder, body := range holders {
			t.Run(kind+"/"+holder, func(t *testing.T) {
				e := NewEngine()
				want := kind + " in " + holder
				arm(e, want)
				var inProc any
				e.Spawn("p", func(p *Proc) {
					defer func() {
						if inProc = recover(); inProc != nil {
							panic(inProc)
						}
					}()
					body(p)
				})
				got := func() (r any) {
					defer func() { r = recover() }()
					return fmt.Sprintf("Run returned %v", e.Run())
				}()
				if got != want {
					t.Errorf("Run on the caller's goroutine: %v, want panic %q", got, want)
				}
				if inProc != nil {
					t.Errorf("panic %v unwound into the process", inProc)
				}
			})
		}
	}
}

// A deadlock is found by whoever runs the event loop when the queue drains —
// the last process to block, or one that has just returned — and Run
// reports it with every blocked process named.
func TestDeadlockFoundByProcessGoroutine(t *testing.T) {
	for _, finder := range []string{"blocking", "exiting"} {
		t.Run(finder, func(t *testing.T) {
			e := NewEngine()
			for _, name := range []string{"b", "a"} {
				s := e.NewSignal("never-" + name)
				e.Spawn(name, func(p *Proc) { p.Wait(s) })
			}
			s := e.NewSignal("never-c")
			e.Spawn("c", func(p *Proc) { p.Sleep(time.Millisecond); p.Wait(s) })
			at := time.Millisecond
			if finder == "exiting" {
				at = 2 * time.Millisecond
				e.Spawn("last", func(p *Proc) { p.Sleep(at) })
			}
			var dl *DeadlockError
			if err := e.Run(); !errors.As(err, &dl) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
			want := "[a: waiting on never-a b: waiting on never-b c: waiting on never-c]"
			if got := fmt.Sprint(dl.Blocked); got != want || dl.Now != at {
				t.Errorf("deadlock at %v, blocked %v; want %v, %v", dl.Now, got, at, want)
			}
		})
	}
}

// A process body that calls runtime.Goexit — t.FailNow in a test — ends
// the goroutine that called Run: iter.Pull passes the Goexit on once the
// process's own defers have run, and Run does not return.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	e := NewEngine()
	var deferred bool
	e.Spawn("p", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		_ = e.Run() // never returns: its goroutine exits inside
		ok = true
	}()
	if <-returned {
		t.Error("Run returned after a process called runtime.Goexit")
	}
	if !deferred {
		t.Error("the process's defers did not run")
	}
	if e.Now() != time.Millisecond {
		t.Errorf("Now = %v, want 1ms", e.Now())
	}
}

// Each process is one coroutine, a goroutine that exists from Spawn until
// the process's function returns: 64 processes that all finish leave the
// goroutine count where it started.
func TestFinishedProcessesLeaveNoGoroutines(t *testing.T) {
	const n = 64
	base := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprint("p", i), func(p *Proc) { p.Sleep(time.Duration(i) * time.Millisecond) })
	}
	if got := runtime.NumGoroutine(); got != base+n {
		t.Errorf("after %d Spawns: %d goroutines, want %d", n, got, base+n)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("after Run: %d goroutines, want the %d before the first Spawn", got, base)
	}
}
