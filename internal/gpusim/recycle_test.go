package gpusim

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"ipmgo/internal/des"
)

// TestStaleRefsReportComplete takes every kind of handle that outlives an
// op — Stream.Last, Device.LastOp, a DevEvent — lets the ops complete,
// forces their structs to be reused by new in-flight ops, and checks each
// handle still reads as complete with its original schedule.
func TestStaleRefsReportComplete(t *testing.T) {
	e := des.NewEngine()
	d := NewDevice(e, testSpec())
	e.Spawn("host", func(p *des.Proc) {
		s := d.CreateStream()
		kernel := d.LaunchKernel(s, "k", fixed(10*time.Millisecond), [3]int{}, [3]int{}, nil)
		kernelRef := s.Last()
		ev := d.NewEvent()
		ev.Record(s)
		streamLast, devLast := s.Last(), d.LastOp()
		if kernelRef.op != kernel || streamLast.op == kernel {
			t.Error("Stream.Last does not track the latest op")
			return
		}
		p.Wait(ev.Done())

		// Both ops are free now; two new long ops on another stream take
		// their structs (LIFO: the event record's first).
		other := d.CreateStream()
		a := d.LaunchKernel(other, "a", fixed(time.Second), [3]int{}, [3]int{}, nil)
		b := d.LaunchKernel(other, "b", fixed(time.Second), [3]int{}, [3]int{}, nil)
		if a != streamLast.op || b != kernel {
			t.Errorf("ops not reused: a=%p b=%p, want %p %p", a, b, streamLast.op, kernel)
			return
		}

		for name, r := range map[string]Ref{"kernel": kernelRef, "Stream.Last": s.Last(), "LastOp": devLast} {
			if !r.Complete() || r.Done() != nil {
				t.Errorf("stale %s handle: Complete=%v Done=%v, want true, nil", name, r.Complete(), r.Done())
			}
		}
		if kernelRef.Start != 0 || kernelRef.End != 10*time.Millisecond {
			t.Errorf("stale kernel handle schedule [%v, %v], want [0, 10ms]", kernelRef.Start, kernelRef.End)
		}
		if got := s.Last().End; got != 10*time.Millisecond {
			t.Errorf("stale Stream.Last End = %v, want 10ms", got)
		}
		if devLast.End != 10*time.Millisecond {
			t.Errorf("stale LastOp End = %v, want 10ms", devLast.End)
		}
		if !ev.Query() || ev.Done() != nil {
			t.Errorf("stale event: Query=%v Done=%v, want true, nil", ev.Query(), ev.Done())
		}
		if ts, err := ev.Timestamp(); err != nil || ts != 10*time.Millisecond {
			t.Errorf("stale event Timestamp = %v, %v; want 10ms", ts, err)
		}

		// The reused structs are live ops of their own again.
		if r := b.Ref(); r.Complete() || r.Done() == nil {
			t.Error("in-flight op reads as complete")
		}
		if got := d.LastOp(); got.op != b || got.End != 10*time.Millisecond+2*time.Second {
			t.Errorf("LastOp = %p ending %v, want b ending 2.01s", got.op, got.End)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitOnReusedOpBlocksUntilItsOwnEnd checks a recycled op starts
// unfired: waiting on the new op — directly or through a fresh Ref —
// blocks until that op's own completion, not its predecessor's.
func TestWaitOnReusedOpBlocksUntilItsOwnEnd(t *testing.T) {
	e := des.NewEngine()
	d := NewDevice(e, testSpec())
	var viaOp, viaRef time.Duration
	e.Spawn("host", func(p *des.Proc) {
		s := d.DefaultStream()
		first := d.LaunchKernel(s, "first", fixed(time.Millisecond), [3]int{}, [3]int{}, nil)
		p.Wait(first.Done())
		second := d.LaunchKernel(s, "second", fixed(5*time.Millisecond), [3]int{}, [3]int{}, nil)
		if second != first {
			t.Error("completed op was not reused")
		}
		p.Wait(second.Done())
		viaOp = p.Now()

		third := d.LaunchKernel(s, "third", fixed(5*time.Millisecond), [3]int{}, [3]int{}, nil)
		sig := s.Last().Done()
		if third != first || sig == nil {
			t.Error("third launch: op not reused or its handle has nothing to wait for")
			return
		}
		p.Wait(sig)
		viaRef = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if viaOp != 6*time.Millisecond || viaRef != 11*time.Millisecond {
		t.Errorf("waits returned at %v and %v, want 6ms and 11ms", viaOp, viaRef)
	}
}

// TestLostDeviceOpsNotRecycled checks ops suppressed by MarkLost never
// reach the free list: their handles stay pending and their signals stay
// waitable (and unfired) for the watchdog to find.
func TestLostDeviceOpsNotRecycled(t *testing.T) {
	e := des.NewEngine()
	d := NewDevice(e, testSpec())
	op := d.LaunchKernel(d.DefaultStream(), "k", fixed(10*time.Millisecond), [3]int{}, [3]int{}, nil)
	ref := op.Ref()
	e.Schedule(5*time.Millisecond, d.MarkLost)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(d.free) != 0 {
		t.Errorf("%d ops recycled on a lost device, want 0", len(d.free))
	}
	if ref.Complete() || ref.Done() == nil || ref.Done().Fired() {
		t.Error("lost op's handle reads as complete")
	}
	if next := d.LaunchKernel(d.DefaultStream(), "k2", fixed(time.Millisecond), [3]int{}, [3]int{}, nil); next == op {
		t.Error("lost op's struct was handed out again")
	}
}

// TestSteadyStateOpBytes pins the per-launch cost of the monitor's KTT
// pattern — kernel launch bracketed by two event records, an event query
// and a stream synchronisation — once the op free list is warm: 10 000
// iterations allocate at most 4 KB in total. (A never-recycled op costs
// 160 B, so three per iteration would be 4.8 MB.) The least of three
// windows counts, so an allocation the runtime or the test harness makes
// in the background during one window is not charged to the device.
func TestSteadyStateOpBytes(t *testing.T) {
	e := des.NewEngine()
	d := NewDevice(e, testSpec())
	least := ^uint64(0)
	e.Spawn("host", func(p *des.Proc) {
		s := d.CreateStream()
		start, stop := d.NewEvent(), d.NewEvent()
		iter := func() {
			start.Record(s)
			d.LaunchKernel(s, "k", fixed(time.Microsecond), [3]int{}, [3]int{}, nil)
			stop.Record(s)
			stop.Query()
			if sig := s.Last().Done(); sig != nil {
				p.Wait(sig)
			}
		}
		for i := 0; i < 100; i++ {
			iter()
		}
		var before, after runtime.MemStats
		for window := 0; window < 3; window++ {
			runtime.ReadMemStats(&before)
			for i := 0; i < 10000; i++ {
				iter()
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if least > 4<<10 {
		t.Errorf("10000 launch+2 event records+query+sync allocated %d B, want <= 4096", least)
	}
}

// TestOpSize keeps an op no larger than before completions went silent:
// the op stores only its ticket's sequence number (the ticket's time is
// End), the sequence number doubles as the Ref generation, and the armed
// flag shares a word with Kind and Stream.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got > 168 {
		t.Errorf("Op is %d B, want at most 168", got)
	}
}
