package gpusim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ipmgo/internal/des"
	"ipmgo/internal/perfmodel"
)

// TestMarkLostSuppressesCompletions loses a device mid-flight and checks
// that in-flight work never completes: payloads don't run, Done signals
// don't fire, kernel-completion callbacks stop — so a host synchronising
// on the device hangs (deadlock), which is what the cluster watchdog
// exists to catch.
func TestMarkLostSuppressesCompletions(t *testing.T) {
	eng := des.NewEngine()
	dev := NewDevice(eng, perfmodel.TeslaC2050())
	var payloadRan, cbRan bool
	dev.OnKernelComplete = func(KernelRecord) { cbRan = true }

	cost := perfmodel.KernelCost{Fixed: 10 * time.Millisecond}
	op := dev.LaunchKernel(dev.DefaultStream(), "k", cost, [3]int{1, 1, 1}, [3]int{1, 1, 1}, func() { payloadRan = true })

	eng.Spawn("host", func(p *des.Proc) {
		p.Wait(op.Done())
		t.Error("wait on lost device returned")
	})

	// Lose the device strictly before the kernel's end time.
	eng.Schedule(op.End/2, func() { dev.MarkLost() })

	err := eng.Run()
	var dl *des.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock from hung stream, got %v", err)
	}
	if payloadRan {
		t.Error("payload ran on lost device")
	}
	if cbRan {
		t.Error("kernel-completion callback ran on lost device")
	}
	if !dev.Lost() {
		t.Error("Lost() = false after MarkLost")
	}
}

// TestMarkLostIdempotentAndLateEnqueue checks post-loss enqueues are
// accepted but never complete, and MarkLost is idempotent.
func TestMarkLostIdempotentAndLateEnqueue(t *testing.T) {
	eng := des.NewEngine()
	dev := NewDevice(eng, perfmodel.TeslaC2050())
	dev.MarkLost()
	dev.MarkLost()
	ran := false
	op := dev.EnqueueMemset(dev.DefaultStream(), 1<<20, func() { ran = true })
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ran {
		t.Error("memset payload ran on lost device")
	}
	if op.Done().Fired() {
		t.Error("Done fired on lost device")
	}
}

// TestMarkLostAtOpEnd loses the device from a callback at exactly the end
// time of a kernel and of the event record behind it. Ties break by
// scheduling order: a loss scheduled before an op was enqueued runs
// before its completion and suppresses it; one scheduled after finds the
// op complete. The outcome must not depend on whether the op carries a
// payload or whether anyone waits on it, and the clock reaches the end
// time either way.
func TestMarkLostAtOpEnd(t *testing.T) {
	const end = 10 * time.Millisecond
	for lossAt := 0; lossAt <= 2; lossAt++ { // before the kernel, between, after the record
		for _, payload := range []bool{false, true} {
			for _, wait := range []bool{false, true} {
				e := des.NewEngine()
				d := NewDevice(e, testSpec())
				s := d.DefaultStream()
				loseAt := func(i int) {
					if i == lossAt {
						e.Schedule(end, d.MarkLost)
					}
				}
				ran := false
				var fn func()
				if payload {
					fn = func() { ran = true }
				}
				loseAt(0)
				op := d.LaunchKernel(s, "k", fixed(end), [3]int{}, [3]int{}, fn)
				ref := op.Ref()
				loseAt(1)
				ev := d.NewEvent()
				ev.Record(s)
				loseAt(2)
				woke := false
				if wait {
					e.Spawn("host", func(p *des.Proc) {
						p.Wait(op.Done())
						woke = true
					})
				}
				err := e.Run()

				name := fmt.Sprintf("loss %d, payload %v, wait %v", lossAt, payload, wait)
				kernelDone, recordDone := lossAt >= 1, lossAt >= 2
				var dl *des.DeadlockError
				if wait && !kernelDone {
					if !errors.As(err, &dl) {
						t.Errorf("%s: Run = %v, want a deadlock", name, err)
					}
				} else if err != nil {
					t.Errorf("%s: Run = %v", name, err)
				}
				if ran != (payload && kernelDone) || woke != (wait && kernelDone) {
					t.Errorf("%s: payload ran %v, waiter woke %v; want kernel complete = %v", name, ran, woke, kernelDone)
				}
				if ref.Complete() != kernelDone || ev.Query() != recordDone {
					t.Errorf("%s: kernel Complete %v, record Query %v; want %v, %v", name, ref.Complete(), ev.Query(), kernelDone, recordDone)
				}
				if _, terr := ev.Timestamp(); (terr == nil) != recordDone {
					t.Errorf("%s: record Timestamp error %v, want complete = %v", name, terr, recordDone)
				}
				if e.Now() != end {
					t.Errorf("%s: clock ends at %v, want %v", name, e.Now(), end)
				}
			}
		}
	}
}
