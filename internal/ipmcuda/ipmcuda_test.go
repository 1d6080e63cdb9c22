package ipmcuda

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ipmgo/internal/cudart"
	"ipmgo/internal/des"
	"ipmgo/internal/gpusim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/perfmodel"
)

func testSpec() perfmodel.GPUSpec {
	s := perfmodel.TeslaC2050()
	s.ContextInit = 100 * time.Millisecond
	s.PCIeLatency = 0
	s.PCIeH2DGBs = 1
	s.PCIeD2HGBs = 1
	s.KernelDispatch = time.Microsecond
	s.KernelLaunch = time.Microsecond
	s.EventRecordCost = 2 * time.Microsecond
	s.APICallCost = 100 * time.Nanosecond
	return s
}

// run executes app as a monitored host process and returns the monitor.
func run(t *testing.T, opts Options, app func(api cudart.API, p *des.Proc)) *Monitor {
	t.Helper()
	e := des.NewEngine()
	dev := gpusim.NewDevice(e, testSpec())
	var wrapped *Monitor
	e.Spawn("host", func(p *des.Proc) {
		rt := cudart.NewRuntime(p, dev, cudart.Options{})
		mon := ipm.NewMonitor(0, "dirac15", "./cuda.ipm", p.Now, 0)
		mon.Start()
		wrapped = Wrap(rt, mon, p, opts)
		app(wrapped, p)
		wrapped.Flush()
		mon.Stop()
	})
	if err := e.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	return wrapped
}

// squareApp is the paper's Fig. 3 program against the API interface.
func squareApp(kernelDur time.Duration, n int) func(api cudart.API, p *des.Proc) {
	return func(api cudart.API, p *des.Proc) {
		square := &cudart.Func{Name: "square", FixedCost: perfmodel.KernelCost{Fixed: kernelDur}}
		size := int64(8 * n)
		buf := make([]byte, size)
		dptr, err := api.Malloc(size)
		if err != nil {
			panic(err)
		}
		if err := api.Memcpy(cudart.DevicePtr(dptr), cudart.HostPtr(buf), size, cudart.MemcpyHostToDevice); err != nil {
			panic(err)
		}
		if err := api.ConfigureCall(cudart.Dim3{X: n}, cudart.Dim3{X: 1}, 0, 0); err != nil {
			panic(err)
		}
		api.SetupArgument(dptr, 8, 0)
		api.SetupArgument(n, 8, 8)
		if err := api.Launch(square); err != nil {
			panic(err)
		}
		if err := api.Memcpy(cudart.HostPtr(buf), cudart.DevicePtr(dptr), size, cudart.MemcpyDeviceToHost); err != nil {
			panic(err)
		}
		if err := api.Free(dptr); err != nil {
			panic(err)
		}
	}
}

func lookup(t *testing.T, m *Monitor, name string) ipm.Stats {
	t.Helper()
	for _, e := range m.IPM().Table().Entries() {
		if e.Sig.Name == name {
			return e.Stats
		}
	}
	return ipm.Stats{}
}

func TestFig4HostTimingOnly(t *testing.T) {
	m := run(t, Options{}, squareApp(time.Second, 100000))
	// cudaMalloc carries context init.
	if s := lookup(t, m, "cudaMalloc"); s.Count != 1 || s.Total < 100*time.Millisecond {
		t.Errorf("cudaMalloc = %+v", s)
	}
	// D2H includes the implicit kernel wait (~1s) plus the 0.8ms transfer.
	if s := lookup(t, m, "cudaMemcpy(D2H)"); s.Total < time.Second {
		t.Errorf("cudaMemcpy(D2H) = %v, want >= 1s (implicit blocking)", s.Total)
	}
	// H2D is just the transfer.
	if s := lookup(t, m, "cudaMemcpy(H2D)"); s.Total > 10*time.Millisecond {
		t.Errorf("cudaMemcpy(H2D) = %v, want small", s.Total)
	}
	// cudaLaunch is asynchronous and cheap.
	if s := lookup(t, m, "cudaLaunch"); s.Total > time.Millisecond {
		t.Errorf("cudaLaunch = %v, want tiny", s.Total)
	}
	if s := lookup(t, m, "cudaSetupArgument"); s.Count != 2 {
		t.Errorf("cudaSetupArgument count = %d, want 2", s.Count)
	}
	// No pseudo entries without kernel timing.
	if s := lookup(t, m, ipm.ExecStreamName(0)); s.Count != 0 {
		t.Error("kernel timing entry present with KernelTiming off")
	}
	if s := lookup(t, m, ipm.HostIdleName); s.Count != 0 {
		t.Error("host idle entry present with HostIdle off")
	}
}

func TestFig5KernelTiming(t *testing.T) {
	m := run(t, Options{KernelTiming: true}, squareApp(time.Second, 100000))
	s := lookup(t, m, ipm.ExecStreamName(0))
	if s.Count != 1 {
		t.Fatalf("@CUDA_EXEC_STRM00 count = %d, want 1", s.Count)
	}
	// Event-bracketed timing is always >= the true kernel time and close
	// to it (constant event overhead).
	if s.Total < time.Second {
		t.Errorf("kernel timing %v below true duration", s.Total)
	}
	if s.Total > time.Second+time.Millisecond {
		t.Errorf("kernel timing %v too far above true duration", s.Total)
	}
	// Per-kernel breakdown entry exists.
	if ks := lookup(t, m, ipm.ExecKernelName(0, "square")); ks.Count != 1 {
		t.Errorf("per-kernel entry = %+v", ks)
	}
	// D2H still carries the implicit block (host idle off).
	if s := lookup(t, m, "cudaMemcpy(D2H)"); s.Total < time.Second {
		t.Errorf("cudaMemcpy(D2H) = %v", s.Total)
	}
}

func TestFig6HostIdle(t *testing.T) {
	m := run(t, Options{KernelTiming: true, HostIdle: true}, squareApp(time.Second, 100000))
	idle := lookup(t, m, ipm.HostIdleName)
	if idle.Count == 0 || idle.Total < 990*time.Millisecond {
		t.Fatalf("@CUDA_HOST_IDLE = %+v, want ~1s", idle)
	}
	// With the wait peeled off, the D2H transfer itself is now small
	// (paper: 1.16s -> 0.01s).
	d2h := lookup(t, m, "cudaMemcpy(D2H)")
	if d2h.Total > 10*time.Millisecond {
		t.Errorf("cudaMemcpy(D2H) after idle separation = %v, want ~0.8ms", d2h.Total)
	}
	// Kernel timing still present and correct.
	if s := lookup(t, m, ipm.ExecStreamName(0)); s.Total < time.Second {
		t.Errorf("kernel timing = %v", s.Total)
	}
}

func TestKTTFullDropsTiming(t *testing.T) {
	app := func(api cudart.API, p *des.Proc) {
		k := &cudart.Func{Name: "k", FixedCost: perfmodel.KernelCost{Fixed: 10 * time.Millisecond}}
		api.Malloc(8)
		// Launch 3 kernels back-to-back with no D2H in between; KTT size 2.
		for i := 0; i < 3; i++ {
			api.ConfigureCall(cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0, 0)
			api.Launch(k)
		}
		api.ThreadSynchronize()
	}
	m := run(t, Options{KernelTiming: true, KTTSize: 2}, app)
	if m.KTTDropped() != 1 {
		t.Errorf("dropped = %d, want 1", m.KTTDropped())
	}
	if s := lookup(t, m, ipm.ExecStreamName(0)); s.Count != 2 {
		t.Errorf("timed kernels = %d, want 2", s.Count)
	}
}

func TestFlushDrainsKTTWithoutD2H(t *testing.T) {
	app := func(api cudart.API, p *des.Proc) {
		k := &cudart.Func{Name: "fire-and-forget", FixedCost: perfmodel.KernelCost{Fixed: 5 * time.Millisecond}}
		api.Malloc(8)
		api.ConfigureCall(cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0, 0)
		api.Launch(k)
		// No D2H transfer follows; Flush (called by harness) must recover
		// the timing.
	}
	m := run(t, Options{KernelTiming: true}, app)
	if s := lookup(t, m, ipm.ExecStreamName(0)); s.Count != 1 {
		t.Errorf("flush did not drain KTT: %+v", s)
	}
}

func TestCheckEveryCallAblation(t *testing.T) {
	app := func(api cudart.API, p *des.Proc) {
		k := &cudart.Func{Name: "k", FixedCost: perfmodel.KernelCost{Fixed: time.Millisecond}}
		api.Malloc(8)
		api.ConfigureCall(cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0, 0)
		api.Launch(k)
		api.ThreadSynchronize() // kernel done, but no D2H
		// An unrelated cheap call should trigger the flush under the
		// check-every-call policy.
		api.GetDevice()
		if s, _ := findEntry(api.(*Monitor), ipm.ExecStreamName(0)); s.Count != 1 {
			panic("not flushed by unrelated call")
		}
	}
	run(t, Options{KernelTiming: true, CheckEveryCall: true}, app)
}

func findEntry(m *Monitor, name string) (ipm.Stats, bool) {
	for _, e := range m.IPM().Table().Entries() {
		if e.Sig.Name == name {
			return e.Stats, true
		}
	}
	return ipm.Stats{}, false
}

func TestEventOverheadCorrection(t *testing.T) {
	base := run(t, Options{KernelTiming: true}, squareApp(10*time.Millisecond, 1000))
	corr := run(t, Options{KernelTiming: true, EventOverheadCorrection: 2 * time.Microsecond},
		squareApp(10*time.Millisecond, 1000))
	b := lookup(t, base, ipm.ExecStreamName(0)).Total
	c := lookup(t, corr, ipm.ExecStreamName(0)).Total
	if c >= b {
		t.Errorf("corrected %v not below uncorrected %v", c, b)
	}
	if b-c != 2*time.Microsecond {
		t.Errorf("correction delta = %v, want 2us", b-c)
	}
}

func TestTransparencyDataUnchanged(t *testing.T) {
	// The monitored application must compute the same results as the bare
	// one. Run the square kernel with a real body both ways.
	const n = 64
	runOnce := func(monitored bool) []float64 {
		e := des.NewEngine()
		dev := gpusim.NewDevice(e, testSpec())
		out := make([]float64, n)
		e.Spawn("host", func(p *des.Proc) {
			var api cudart.API = cudart.NewRuntime(p, dev, cudart.Options{})
			if monitored {
				mon := ipm.NewMonitor(0, "h", "cmd", p.Now, 0)
				mon.Start()
				api = Wrap(api, mon, p, Options{KernelTiming: true, HostIdle: true})
			}
			square := &cudart.Func{
				Name:      "square",
				FixedCost: perfmodel.KernelCost{Fixed: time.Millisecond},
				Body: func(ctx cudart.LaunchContext) {
					ptr := ctx.Args.Arg(0).(cudart.DevPtr)
					b, _ := ctx.Dev.Bytes(ptr, gpusim.F64Bytes(n))
					v := gpusim.Float64s(b)
					for i := 0; i < n; i++ {
						v.Set(i, v.At(i)*v.At(i))
					}
				},
			}
			buf := make([]byte, gpusim.F64Bytes(n))
			in := make([]float64, n)
			for i := range in {
				in[i] = float64(i) + 0.5
			}
			gpusim.Float64s(buf).CopyIn(in)
			d, _ := api.Malloc(gpusim.F64Bytes(n))
			api.Memcpy(cudart.DevicePtr(d), cudart.HostPtr(buf), gpusim.F64Bytes(n), cudart.MemcpyHostToDevice)
			api.ConfigureCall(cudart.Dim3{X: n}, cudart.Dim3{X: 1}, 0, 0)
			api.SetupArgument(d, 8, 0)
			api.Launch(square)
			api.Memcpy(cudart.HostPtr(buf), cudart.DevicePtr(d), gpusim.F64Bytes(n), cudart.MemcpyDeviceToHost)
			gpusim.Float64s(buf).CopyOut(out)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	bare, mon := runOnce(false), runOnce(true)
	for i := range bare {
		if bare[i] != mon[i] {
			t.Fatalf("monitoring changed results at %d: %v vs %v", i, bare[i], mon[i])
		}
	}
}

func TestMonitoringDilationSmall(t *testing.T) {
	// Application-level dilation of monitoring should be well under 1%
	// for a kernel-dominated workload (paper Fig. 8: 0.21%).
	wallOf := func(monitored bool) time.Duration {
		e := des.NewEngine()
		dev := gpusim.NewDevice(e, testSpec())
		e.Spawn("host", func(p *des.Proc) {
			var api cudart.API = cudart.NewRuntime(p, dev, cudart.Options{})
			var w *Monitor
			if monitored {
				mon := ipm.NewMonitor(0, "h", "cmd", p.Now, 0)
				mon.Start()
				w = Wrap(api, mon, p, Options{KernelTiming: true, HostIdle: true})
				api = w
			}
			d, _ := api.Malloc(8)
			k := &cudart.Func{Name: "k", FixedCost: perfmodel.KernelCost{Fixed: 20 * time.Millisecond}}
			buf := make([]byte, 8)
			for i := 0; i < 50; i++ {
				api.ConfigureCall(cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0, 0)
				api.Launch(k)
				api.Memcpy(cudart.HostPtr(buf), cudart.DevicePtr(d), 8, cudart.MemcpyDeviceToHost)
			}
			if w != nil {
				w.Flush()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	bare, mon := wallOf(false), wallOf(true)
	dilation := float64(mon-bare) / float64(bare)
	if dilation < 0 {
		t.Fatalf("monitored run faster than bare: %v vs %v", mon, bare)
	}
	if dilation > 0.01 {
		t.Errorf("dilation = %.4f, want < 1%%", dilation)
	}
}

func TestTraceTimeline(t *testing.T) {
	var events []TraceEvent
	opts := Options{KernelTiming: true, HostIdle: true, Trace: func(ev TraceEvent) { events = append(events, ev) }}
	run(t, opts, squareApp(100*time.Millisecond, 1000))
	var seq []string
	for _, ev := range events {
		seq = append(seq, ev.What)
	}
	joined := strings.Join(seq, ";")
	for _, want := range []string{"launch (a)", "record start event (b)", "record stop event (c)",
		"cudaMemcpy (f)", "host idle sync", "transfer done (g)", "KTT flush square (h)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("timeline missing %q: %v", want, seq)
		}
	}
	// Ordering: (a) before (b) before (c); flush after transfer.
	idx := func(s string) int { return strings.Index(joined, s) }
	if !(idx("launch (a)") < idx("record start event (b)") &&
		idx("record start event (b)") < idx("record stop event (c)") &&
		idx("transfer done (g)") < idx("KTT flush square (h)")) {
		t.Errorf("timeline out of order: %v", seq)
	}
}

// With no trace listener the KTT flush allocates nothing: the pseudo-entry
// handles are memoized, the table entries exist after the first flush, and
// the "KTT flush <kernel> (h)" label is not built.
func TestKTTFlushZeroAllocUntraced(t *testing.T) {
	allocs := -1.0
	app := func(api cudart.API, p *des.Proc) {
		m := api.(*Monitor)
		k := &cudart.Func{Name: "a_kernel_name_longer_than_a_stack_buffer", FixedCost: perfmodel.KernelCost{Fixed: time.Millisecond}}
		api.Malloc(8)
		api.ConfigureCall(cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0, 0)
		api.Launch(k)
		api.ThreadSynchronize()
		m.checkKTT() // first flush: creates the handles and the entries
		allocs = testing.AllocsPerRun(100, func() {
			// Re-arm the slot just released: its events stay recorded and
			// complete, so the next check flushes it again.
			i := m.findSlot()
			m.ktt[i].used = true
			m.kttArmed = append(m.kttArmed, i)
			m.checkKTT()
		})
	}
	m := run(t, Options{KernelTiming: true}, app)
	if allocs != 0 {
		t.Errorf("KTT flush with Trace == nil: %v allocs/op, want 0", allocs)
	}
	if s := lookup(t, m, ipm.ExecStreamName(0)); s.Count != 102 {
		t.Errorf("flushes = %d, want 102 (1 + AllocsPerRun's warm-up + 100)", s.Count)
	}
}

func TestDriverWrappers(t *testing.T) {
	app := func(api cudart.API, p *des.Proc) {
		m := api.(*Monitor)
		if err := m.CuInit(); err != nil {
			panic(err)
		}
		d, err := m.CuMemAlloc(16)
		if err != nil {
			panic(err)
		}
		k := &cudart.Func{Name: "drvk", FixedCost: perfmodel.KernelCost{Fixed: 50 * time.Millisecond}}
		if err := m.CuLaunchKernel(k, cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0); err != nil {
			panic(err)
		}
		out := make([]byte, 16)
		if err := m.CuMemcpyDtoH(out, d); err != nil {
			panic(err)
		}
		m.CuMemFree(d)
	}
	m := run(t, Options{KernelTiming: true, HostIdle: true}, app)
	if s := lookup(t, m, "cuMemcpyDtoH"); s.Count != 1 {
		t.Errorf("cuMemcpyDtoH not recorded: %+v", s)
	}
	if s := lookup(t, m, ipm.ExecKernelName(0, "drvk")); s.Count != 1 {
		t.Errorf("driver-launched kernel not timed: %+v", s)
	}
	if s := lookup(t, m, ipm.HostIdleName); s.Total < 40*time.Millisecond {
		t.Errorf("driver host idle = %+v", s)
	}
}

func TestAsyncMemcpyNoHostIdle(t *testing.T) {
	app := func(api cudart.API, p *des.Proc) {
		d, _ := api.Malloc(8)
		s, _ := api.StreamCreate()
		k := &cudart.Func{Name: "k", FixedCost: perfmodel.KernelCost{Fixed: 100 * time.Millisecond}}
		api.ConfigureCall(cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0, s)
		api.Launch(k)
		api.MemcpyAsync(cudart.HostPtr(make([]byte, 8)), cudart.DevicePtr(d), 8, cudart.MemcpyDeviceToHost, s)
		api.StreamSynchronize(s)
	}
	m := run(t, Options{KernelTiming: true, HostIdle: true}, app)
	if s := lookup(t, m, ipm.HostIdleName); s.Count != 0 {
		t.Errorf("async memcpy produced host idle: %+v", s)
	}
	if s := lookup(t, m, "cudaMemcpyAsync(D2H)"); s.Count != 1 {
		t.Errorf("async memcpy not recorded: %+v", s)
	}
	// Kernel on stream 1 timed under STRM01.
	if s := lookup(t, m, ipm.ExecStreamName(1)); s.Count != 1 {
		t.Errorf("stream-1 kernel timing: %+v", s)
	}
}

func TestMemsetNotHostIdleProbed(t *testing.T) {
	app := func(api cudart.API, p *des.Proc) {
		d, _ := api.Malloc(64)
		k := &cudart.Func{Name: "k", FixedCost: perfmodel.KernelCost{Fixed: 200 * time.Millisecond}}
		api.ConfigureCall(cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0, 0)
		api.Launch(k)
		api.Memset(d, 0, 64) // must not charge @CUDA_HOST_IDLE
		api.ThreadSynchronize()
	}
	m := run(t, Options{KernelTiming: true, HostIdle: true}, app)
	if s := lookup(t, m, ipm.HostIdleName); s.Count != 0 {
		t.Errorf("memset charged host idle: %+v", s)
	}
}

// TestKTTGrowsOnDemand checks the kernel timing table holds only the
// slots a rank has used, hands them out 0, 1, 2, ... and then most
// recently released first, and still stops at KTTSize.
func TestKTTGrowsOnDemand(t *testing.T) {
	var before int
	var armed, free []int
	next := -1
	app := func(api cudart.API, p *des.Proc) {
		m := api.(*Monitor)
		before = len(m.ktt)
		k := &cudart.Func{Name: "k", FixedCost: perfmodel.KernelCost{Fixed: time.Millisecond}}
		api.Malloc(8)
		for i := 0; i < 3; i++ {
			api.ConfigureCall(cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0, 0)
			api.Launch(k)
		}
		armed = append(armed, m.kttArmed...)
		api.ThreadSynchronize()
		m.checkKTT()
		free = append(free, m.kttFree...)
		next = m.findSlot()
		m.releaseSlot(next)
	}
	m := run(t, Options{KernelTiming: true, KTTSize: 4}, app)
	if before != 0 || len(m.ktt) != 3 {
		t.Errorf("table length %d before any launch and %d after 3, want 0 and 3", before, len(m.ktt))
	}
	if fmt.Sprint(armed) != "[0 1 2]" || fmt.Sprint(free) != "[0 1 2]" || next != 2 {
		t.Errorf("armed %v, released %v, next %d; want [0 1 2], [0 1 2], 2", armed, free, next)
	}
}
