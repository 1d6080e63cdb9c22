package des

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the dispatch-order goldens")

// tagRunner is a Runner that logs its tag when it runs.
type tagRunner struct {
	tag string
	log func(string)
}

func (r *tagRunner) Run() { r.log(r.tag) }

// orderTrace runs a seeded random program — processes doing short random
// sleeps (so same-timestamp ties are common), timed and hand-fired signal
// waits, Schedule/ScheduleRunner with late cancels, mid-run spawns and one
// Kill — first up to a horizon and then to completion, and returns one
// "<now> <who>" line per process resume and per callback. It uses only the
// package's exported surface, so the same file records the trace on any
// engine implementation; the goldens under testdata/ were recorded on the
// engine-goroutine dispatcher this package had before baton passing.
func orderTrace(seed int64) string {
	var b strings.Builder
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	logf := func(tag string) { fmt.Fprintf(&b, "%d %s\n", int64(e.Now()), tag) }
	ns := func(n int) time.Duration { return time.Duration(rng.Intn(n)) }

	var (
		procs   []*Proc
		handoff []*Signal // waited on, fired by whichever process draws "fire"
		events  []Event   // cancellable, possibly already fired
		nfn     int
		spawned int
		killed  bool
	)
	kill := func(by string) {
		if killed {
			return
		}
		killed = true
		victim := procs[rng.Intn(len(procs))]
		logf(fmt.Sprintf("%s kills p%d", by, victim.ID()))
		victim.Kill("seeded")
	}
	var body func(steps int) func(*Proc)
	body = func(steps int) func(*Proc) {
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
				case n < 45:
					p.Sleep(ns(6))
					logf(id + " slept")
				case n < 55:
					s := e.NewSignal(id + ".timed")
					s.FireAt(e.Now() + ns(9))
					if rng.Intn(2) == 0 {
						s.OnFire(func() { logf(id + " onfire") })
					}
					p.Wait(s)
					logf(id + " woke")
				case n < 65:
					s := e.NewSignal(id + ".handoff")
					handoff = append(handoff, s)
					s.FireAt(e.Now() + 20) // backstop so the program cannot deadlock
					p.Wait(s)
					logf(id + " handed")
				case n < 75:
					if len(handoff) > 0 {
						s := handoff[0]
						handoff = handoff[1:]
						s.Fire()
						logf(id + " fired " + s.Name())
					}
				case n < 85:
					nfn++
					tag := fmt.Sprintf("fn%d", nfn)
					events = append(events, e.ScheduleAfter(ns(9), func() { logf(tag) }))
				case n < 90:
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
					if spawned < 4 {
						spawned++
						procs = append(procs, e.Spawn("child", body(12)))
					}
				default:
					kill(id)
				}
			}
			logf(id + " exit")
		}
	}
	for i := 0; i < 6; i++ {
		procs = append(procs, e.Spawn(fmt.Sprintf("rank%d", i), body(40)))
	}
	e.Schedule(ns(80), func() { kill("fn") })

	err := e.RunFor(40)
	fmt.Fprintf(&b, "horizon now=%d pending=%d err=%v\n", int64(e.Now()), e.Pending(), err)
	err = e.Run()
	fmt.Fprintf(&b, "end now=%d pending=%d err=%v\n", int64(e.Now()), e.Pending(), err)
	return b.String()
}

// TestDispatchOrderGolden is the unit-level proof behind "byte-identical
// virtual time": pop order is a pure function of (at, seq), so the trace
// of a random program must not depend on which goroutine pops.
func TestDispatchOrderGolden(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		path := filepath.Join("testdata", fmt.Sprintf("order_seed%d.txt", seed))
		got := orderTrace(seed)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("seed %d: dispatch order diverges from %s at line %d: got %q, want %q", seed, path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("seed %d: trace has %d lines, %s has %d", seed, len(gl), path, len(wl))
		}
	}
}
