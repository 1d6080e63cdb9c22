package cmdqueue

import (
	"errors"
	"testing"
	"time"

	"ipmgo/internal/des"
	"ipmgo/internal/gpusim"
	"ipmgo/internal/perfmodel"
	"ipmgo/internal/telemetry"
)

// testSpec mirrors gpusim's test spec: zero fixed costs and round
// bandwidths so timing assertions stay exact.
func testSpec() perfmodel.GPUSpec {
	s := perfmodel.TeslaC2050()
	s.KernelDispatch = 0
	s.EventRecordCost = 0
	s.PCIeLatency = 0
	s.PCIeH2DGBs = 1
	s.PCIeD2HGBs = 1
	s.ContextInit = 0
	return s
}

func fixed(d time.Duration) perfmodel.KernelCost { return perfmodel.KernelCost{Fixed: d} }

// submitRec captures one OnSubmit callback.
type submitRec struct {
	site  string
	bytes int64
	stall time.Duration
}

func TestFlushByDepth(t *testing.T) {
	e := des.NewEngine()
	d := gpusim.NewDevice(e, testSpec())
	var subs []submitRec
	q := New(d, Options{
		FlushDepth:    3,
		FlushInterval: -1, // timer off: depth is the only trigger
		OnSubmit: func(site string, bytes int64, stall time.Duration) {
			subs = append(subs, submitRec{site, bytes, stall})
		},
	})
	e.Spawn("host", func(p *des.Proc) {
		gs := d.DefaultStream()
		if err := q.EnqueueKernel(gs, "cudaLaunch", "k0", fixed(time.Millisecond), [3]int{}, [3]int{}, nil); err != nil {
			t.Error(err)
		}
		p.Sleep(2 * time.Millisecond)
		if err := q.EnqueueKernel(gs, "cudaLaunch", "k1", fixed(time.Millisecond), [3]int{}, [3]int{}, nil); err != nil {
			t.Error(err)
		}
		if got := q.Depth(); got != 2 {
			t.Errorf("depth before trigger = %d, want 2", got)
		}
		if got := q.Flushes(); got != 0 {
			t.Errorf("flushed before reaching depth: %d", got)
		}
		p.Sleep(3 * time.Millisecond)
		// Third command reaches FlushDepth and submits the batch.
		if err := q.EnqueueKernel(gs, "cudaLaunch", "k2", fixed(time.Millisecond), [3]int{}, [3]int{}, nil); err != nil {
			t.Error(err)
		}
		if got := q.Depth(); got != 0 {
			t.Errorf("depth after flush = %d, want 0", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if q.Flushes() != 1 || q.Submits() != 3 {
		t.Fatalf("flushes=%d submits=%d, want 1/3", q.Flushes(), q.Submits())
	}
	// Flush happened at t=5ms: stalls are 5, 3, 0 ms in enqueue order.
	want := []time.Duration{5 * time.Millisecond, 3 * time.Millisecond, 0}
	if len(subs) != len(want) {
		t.Fatalf("got %d submit callbacks, want %d", len(subs), len(want))
	}
	for i, s := range subs {
		if s.site != "cudaLaunch" || s.stall != want[i] {
			t.Errorf("submit %d = {%q %v}, want {cudaLaunch %v}", i, s.site, s.stall, want[i])
		}
	}
	if q.MaxDepth() != 3 {
		t.Errorf("max depth = %d, want 3", q.MaxDepth())
	}
}

func TestFlushByTimer(t *testing.T) {
	e := des.NewEngine()
	d := gpusim.NewDevice(e, testSpec())
	var subs []submitRec
	q := New(d, Options{
		FlushDepth:    100, // never reached: the timer must fire
		FlushInterval: 5 * time.Millisecond,
		OnSubmit: func(site string, bytes int64, stall time.Duration) {
			subs = append(subs, submitRec{site, bytes, stall})
		},
	})
	var opEnd time.Duration
	e.Spawn("host", func(p *des.Proc) {
		gs := d.DefaultStream()
		if err := q.EnqueueKernel(gs, "cudaLaunch", "k", fixed(time.Millisecond), [3]int{}, [3]int{}, nil); err != nil {
			t.Error(err)
		}
		p.Sleep(20 * time.Millisecond)
		op := d.LastOp()
		if op == (gpusim.Ref{}) {
			t.Error("no device op after timer window")
			return
		}
		if sig := op.Done(); sig != nil {
			p.Wait(sig)
		}
		opEnd = op.End
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if q.Flushes() != 1 {
		t.Fatalf("flushes = %d, want 1 (timer)", q.Flushes())
	}
	if len(subs) != 1 || subs[0].stall != 5*time.Millisecond {
		t.Fatalf("submit stall = %+v, want one 5ms entry", subs)
	}
	// Kernel hit the device at 5ms and ran 1ms.
	if opEnd != 6*time.Millisecond {
		t.Errorf("kernel end = %v, want 6ms", opEnd)
	}
}

func TestExplicitFlushCancelsTimer(t *testing.T) {
	e := des.NewEngine()
	d := gpusim.NewDevice(e, testSpec())
	q := New(d, Options{FlushDepth: 100, FlushInterval: 5 * time.Millisecond})
	e.Spawn("host", func(p *des.Proc) {
		gs := d.DefaultStream()
		if err := q.EnqueueMemset(gs, "cudaMemset", 64, nil); err != nil {
			t.Error(err)
		}
		if err := q.Flush(); err != nil { // sync point before the timer
			t.Error(err)
		}
		p.Sleep(20 * time.Millisecond) // past the (cancelled) timer
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if q.Flushes() != 1 {
		t.Errorf("flushes = %d, want exactly 1 (timer cancelled)", q.Flushes())
	}
}

func TestFIFOOrderAndEventRecord(t *testing.T) {
	e := des.NewEngine()
	d := gpusim.NewDevice(e, testSpec())
	q := New(d, Options{FlushDepth: 100, FlushInterval: -1})
	ev := d.NewEvent()
	var elapsed time.Duration
	e.Spawn("host", func(p *des.Proc) {
		gs := d.DefaultStream()
		if err := q.EnqueueKernel(gs, "cudaLaunch", "k", fixed(3*time.Millisecond), [3]int{}, [3]int{}, nil); err != nil {
			t.Error(err)
		}
		if err := q.EnqueueEventRecord(gs, "cudaEventRecord", ev); err != nil {
			t.Error(err)
		}
		// Unflushed: the record has not reached the device.
		if ev.Query() {
			t.Error("event reports recorded before flush")
		}
		if err := q.Flush(); err != nil {
			t.Error(err)
		}
		p.Wait(ev.Done())
		elapsed = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// FIFO: the event recorded after the kernel fires at the kernel's end.
	if elapsed != 3*time.Millisecond {
		t.Errorf("event fired at %v, want 3ms", elapsed)
	}
}

func TestDeviceLostDropsBatch(t *testing.T) {
	e := des.NewEngine()
	d := gpusim.NewDevice(e, testSpec())
	var subs int
	q := New(d, Options{
		FlushDepth:    100,
		FlushInterval: -1,
		OnSubmit:      func(string, int64, time.Duration) { subs++ },
	})
	e.Spawn("host", func(p *des.Proc) {
		gs := d.DefaultStream()
		for i := 0; i < 3; i++ {
			if err := q.EnqueueMemset(gs, "cudaMemset", 64, nil); err != nil {
				t.Error(err)
			}
		}
		d.MarkLost()
		if err := q.Flush(); !errors.Is(err, ErrDeviceLost) {
			t.Errorf("flush on lost device = %v, want ErrDeviceLost", err)
		}
		// Sticky: later enqueues and flushes fail fast, nothing hangs.
		if err := q.EnqueueMemset(gs, "cudaMemset", 64, nil); !errors.Is(err, ErrDeviceLost) {
			t.Errorf("enqueue after loss = %v, want ErrDeviceLost", err)
		}
		if err := q.Flush(); !errors.Is(err, ErrDeviceLost) {
			t.Errorf("flush after loss = %v, want ErrDeviceLost", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if subs != 0 {
		t.Errorf("%d commands submitted from a lost device's queue, want 0", subs)
	}
	if q.Depth() != 0 {
		t.Errorf("depth = %d after drop, want 0", q.Depth())
	}
	if d.LastOp() != (gpusim.Ref{}) {
		t.Error("device received an op from the dropped batch")
	}
}

func TestQueueTelemetry(t *testing.T) {
	e := des.NewEngine()
	d := gpusim.NewDevice(e, testSpec())
	rec := telemetry.NewRecorder(128)
	q := New(d, Options{FlushDepth: 2, FlushInterval: -1, Name: "ctx0/q0", Telemetry: rec})
	e.Spawn("host", func(p *des.Proc) {
		gs := d.DefaultStream()
		q.EnqueueMemset(gs, "cudaMemset", 64, nil)
		p.Sleep(time.Millisecond)
		q.EnqueueMemset(gs, "cudaMemset", 64, nil) // depth 2: flush
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var submit *telemetry.Span
	for _, s := range rec.Snapshot() {
		if s.Class == telemetry.ClassQueue && s.Name == "submit" {
			s := s
			submit = &s
		}
	}
	if submit == nil {
		t.Fatal("no ClassQueue submit span recorded")
	}
	if submit.Track != "ctx0/q0" || submit.Start != 0 || submit.End != time.Millisecond || submit.Bytes != 2 {
		t.Errorf("submit span = %+v, want track ctx0/q0 spanning 0..1ms with 2 commands", submit)
	}
	pts := rec.CounterSnapshot()
	// depth=1 at enqueue, depth=2 at second enqueue, depth=0 after flush.
	want := []float64{1, 2, 0}
	if len(pts) != len(want) {
		t.Fatalf("got %d counter points, want %d: %+v", len(pts), len(want), pts)
	}
	for i, p := range pts {
		if p.Track != "ctx0/q0" || p.Name != "depth" || p.Value != want[i] {
			t.Errorf("counter %d = %+v, want depth=%v on ctx0/q0", i, p, want[i])
		}
	}
}

// TestEnqueueAllocs pins the enqueue hot path at zero heap allocations
// per command once the command slice has grown to its working size.
func TestEnqueueAllocs(t *testing.T) {
	e := des.NewEngine()
	d := gpusim.NewDevice(e, testSpec())
	q := New(d, Options{FlushDepth: 1 << 20, FlushInterval: -1})
	gs := d.DefaultStream()
	for i := 0; i < 2048; i++ {
		if err := q.EnqueueMemset(gs, "cudaMemset", 64, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The drained slice keeps its capacity: enqueues below never grow it.
	if allocs := testing.AllocsPerRun(500, func() {
		if err := q.EnqueueMemset(gs, "cudaMemset", 64, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("enqueue allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkQueueSubmit(b *testing.B) {
	e := des.NewEngine()
	d := gpusim.NewDevice(e, testSpec())
	q := New(d, Options{FlushDepth: 64, FlushInterval: -1})
	gs := d.DefaultStream()
	run := func() {
		for j := 0; j < 1024; j++ {
			if err := q.EnqueueMemset(gs, "cudaMemset", 4096, nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := q.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm pools and the command slice
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
