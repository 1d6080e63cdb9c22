//go:build !race

package des

import (
	"testing"
	"time"

	"ipmgo/internal/alloctest"
)

// TestScheduleFireZeroAllocSteadyState pins the headline property of the
// slot-pool engine: once the pool and heap have grown to working size,
// Schedule + fire allocates nothing. Excluded under -race, whose runtime
// adds bookkeeping allocations, like every pin in this file.
func TestScheduleFireZeroAllocSteadyState(t *testing.T) {
	if allocs := testing.AllocsPerRun(50, scheduleRunOp(t)); allocs != 0 {
		t.Errorf("schedule+fire steady state = %v allocs/round, want 0", allocs)
	}
}

// TestCancelZeroAllocSteadyState: cancelling recycles through the free
// list without allocating either.
func TestCancelZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	round := func() {
		base := e.Now()
		for j := 0; j < 256; j++ {
			ev := e.Schedule(base+time.Duration(j)*time.Microsecond, fn)
			if j%2 == 1 {
				ev.Cancel()
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("schedule+cancel steady state = %v allocs/round, want 0", allocs)
	}
}

// Control transfer allocates nothing: neither a Sleep (next in line or
// through the queue) nor a cross-process signal round trip — the ops of
// the three BenchmarkProc* benchmarks.
func TestControlTransferZeroAlloc(t *testing.T) {
	const runs = 200
	e := NewEngine()
	roundTrip := spawnEcho(e, 1+runs)
	var sleep, queued, handoff float64
	e.Spawn("p", func(p *Proc) {
		sleep = testing.AllocsPerRun(runs, func() { sleepNextInLine(p) })
		queued = testing.AllocsPerRun(runs, func() { sleepPastCallback(p) })
		handoff = testing.AllocsPerRun(runs, func() { roundTrip(p) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sleep != 0 || queued != 0 || handoff != 0 {
		t.Errorf("allocs/op: Sleep %v, Sleep past a callback %v, signal round trip %v; want 0", sleep, queued, handoff)
	}
}

// A process's life — Spawn, run, exit — allocates what it did when the pin
// was taken, within 30 %: the Proc and iter.Pull's coroutine and closures.
func TestSpawnAllocs(t *testing.T) {
	alloctest.Pin(t, "ProcSpawn", 1000, spawnRunOp(t), 13, 497)
}
