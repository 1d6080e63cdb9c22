package cudart

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"ipmgo/internal/alloctest"
	"ipmgo/internal/des"
	"ipmgo/internal/gpusim"
	"ipmgo/internal/perfmodel"
)

// fastSpec has no context-init cost and round PCIe numbers, keeping timing
// assertions simple.
func fastSpec() perfmodel.GPUSpec {
	s := perfmodel.TeslaC2050()
	s.ContextInit = 0
	s.PCIeLatency = 0
	s.PCIeH2DGBs = 1
	s.PCIeD2HGBs = 1
	s.KernelDispatch = 0
	s.KernelLaunch = 0
	s.EventRecordCost = 0
	s.APICallCost = 0
	return s
}

// run executes fn as a host process with a fresh runtime and returns the
// final virtual time.
func run(t *testing.T, spec perfmodel.GPUSpec, opts Options, fn func(p *des.Proc, rt *Runtime)) time.Duration {
	t.Helper()
	e := des.NewEngine()
	dev := gpusim.NewDevice(e, spec)
	e.Spawn("host", func(p *des.Proc) {
		fn(p, NewRuntime(p, dev, opts))
	})
	if err := e.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	return e.Now()
}

func fixedKernel(name string, d time.Duration) *Func {
	return &Func{Name: name, FixedCost: perfmodel.KernelCost{Fixed: d}}
}

func TestFirstCallPaysContextInit(t *testing.T) {
	spec := fastSpec()
	spec.ContextInit = 2 * time.Second
	var first, second time.Duration
	run(t, spec, Options{}, func(p *des.Proc, rt *Runtime) {
		t0 := p.Now()
		if _, err := rt.Malloc(8); err != nil {
			t.Fatal(err)
		}
		first = p.Now() - t0
		t0 = p.Now()
		if _, err := rt.Malloc(8); err != nil {
			t.Fatal(err)
		}
		second = p.Now() - t0
	})
	if first < 2*time.Second {
		t.Errorf("first Malloc took %v, want >= 2s (context init)", first)
	}
	if second >= 2*time.Second {
		t.Errorf("second Malloc took %v, want cheap", second)
	}
}

func TestSquareExampleRoundTrip(t *testing.T) {
	// The paper's Fig. 3 example: H2D, square kernel, D2H; verify data.
	const N = 1000
	square := &Func{
		Name:      "square",
		FixedCost: perfmodel.KernelCost{Fixed: time.Millisecond},
		Body: func(ctx LaunchContext) {
			ptr := ctx.Args.Arg(0).(DevPtr)
			n := ctx.Args.Arg(1).(int)
			b, err := ctx.Dev.Bytes(ptr, gpusim.F64Bytes(n))
			if err != nil {
				panic(err)
			}
			v := gpusim.Float64s(b)
			for i := 0; i < n; i++ {
				x := v.At(i)
				v.Set(i, x*x)
			}
		},
	}
	host := make([]float64, N)
	for i := range host {
		host[i] = float64(i)
	}
	buf := make([]byte, gpusim.F64Bytes(N))
	gpusim.Float64s(buf).CopyIn(host)

	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		dptr, err := rt.Malloc(gpusim.F64Bytes(N))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Memcpy(DevicePtr(dptr), HostPtr(buf), gpusim.F64Bytes(N), MemcpyHostToDevice); err != nil {
			t.Fatal(err)
		}
		if err := rt.LaunchKernel(square, Dim3{X: N}, Dim3{X: 1}, 0, dptr, N); err != nil {
			t.Fatal(err)
		}
		if err := rt.Memcpy(HostPtr(buf), DevicePtr(dptr), gpusim.F64Bytes(N), MemcpyDeviceToHost); err != nil {
			t.Fatal(err)
		}
		if err := rt.Free(dptr); err != nil {
			t.Fatal(err)
		}
	})
	out := make([]float64, N)
	gpusim.Float64s(buf).CopyOut(out)
	for i := range out {
		want := float64(i) * float64(i)
		if out[i] != want {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want)
		}
	}
}

func TestSyncMemcpyImplicitlyBlocksBehindKernel(t *testing.T) {
	// Launch an async 1 s kernel, then a tiny sync D2H copy. The copy must
	// not return before the kernel finishes — the behaviour @CUDA_HOST_IDLE
	// quantifies.
	var launchReturned, memcpyReturned time.Duration
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		dptr, _ := rt.Malloc(8)
		if err := rt.LaunchKernel(fixedKernel("slow", time.Second), Dim3{X: 1}, Dim3{X: 1}, 0); err != nil {
			t.Fatal(err)
		}
		launchReturned = p.Now()
		buf := make([]byte, 8)
		if err := rt.Memcpy(HostPtr(buf), DevicePtr(dptr), 8, MemcpyDeviceToHost); err != nil {
			t.Fatal(err)
		}
		memcpyReturned = p.Now()
	})
	if launchReturned >= time.Second {
		t.Errorf("launch blocked: returned at %v", launchReturned)
	}
	if memcpyReturned < time.Second {
		t.Errorf("sync memcpy returned at %v, before kernel completion", memcpyReturned)
	}
}

func TestMemsetDoesNotBlock(t *testing.T) {
	// cudaMemset behind a slow kernel returns immediately (the paper's
	// microbenchmark exception).
	var after time.Duration
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		dptr, _ := rt.Malloc(1 << 20)
		if err := rt.LaunchKernel(fixedKernel("slow", time.Second), Dim3{X: 1}, Dim3{X: 1}, 0); err != nil {
			t.Fatal(err)
		}
		if err := rt.Memset(dptr, 0xAB, 1<<20); err != nil {
			t.Fatal(err)
		}
		after = p.Now()
		rt.ThreadSynchronize()
		b, _ := rt.Device().Bytes(dptr, 4)
		if b[0] != 0xAB {
			t.Errorf("memset payload did not run: %x", b[0])
		}
	})
	if after >= time.Second {
		t.Errorf("Memset blocked until %v", after)
	}
}

func TestMemcpyAsyncReturnsImmediately(t *testing.T) {
	var after time.Duration
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		dptr, _ := rt.Malloc(8)
		s, _ := rt.StreamCreate()
		// nil host buffer: a cost-only transfer with no functional payload.
		if err := rt.MemcpyAsync(DevicePtr(dptr), HostPtr(nil), 1e9, MemcpyHostToDevice, s); err != nil {
			t.Fatal(err)
		}
		after = p.Now()
		rt.StreamSynchronize(s)
		if p.Now() < time.Second {
			t.Errorf("1 GB at 1 GB/s finished at %v, want >= 1s", p.Now())
		}
	})
	if after >= 100*time.Millisecond {
		t.Errorf("MemcpyAsync blocked until %v", after)
	}
}

func TestLaunchWithoutConfigureFails(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		err := rt.Launch(fixedKernel("k", time.Millisecond))
		var ce *Error
		if !errors.As(err, &ce) || ce.Code != CodeInvalidConfiguration {
			t.Errorf("Launch without configure: %v", err)
		}
		if err := rt.SetupArgument(1, 8, 0); err == nil {
			t.Error("SetupArgument without configure should fail")
		}
		// The error is sticky until read.
		if got := rt.GetLastError(); got == nil {
			t.Error("GetLastError lost the sticky error")
		}
		if got := rt.GetLastError(); got != nil {
			t.Errorf("GetLastError did not clear: %v", got)
		}
	})
}

func TestLaunchBlockingOption(t *testing.T) {
	var after time.Duration
	run(t, fastSpec(), Options{LaunchBlocking: true}, func(p *des.Proc, rt *Runtime) {
		rt.Malloc(8) // init
		if err := rt.LaunchKernel(fixedKernel("k", time.Second), Dim3{X: 1}, Dim3{X: 1}, 0); err != nil {
			t.Fatal(err)
		}
		after = p.Now()
	})
	if after < time.Second {
		t.Errorf("blocking launch returned at %v, want >= 1s", after)
	}
}

func TestEventTimingKernel(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		s, _ := rt.StreamCreate()
		start, _ := rt.EventCreate()
		stop, _ := rt.EventCreate()
		if err := rt.EventRecord(start, s); err != nil {
			t.Fatal(err)
		}
		if err := rt.LaunchKernel(fixedKernel("k", 50*time.Millisecond), Dim3{X: 1}, Dim3{X: 1}, s); err != nil {
			t.Fatal(err)
		}
		if err := rt.EventRecord(stop, s); err != nil {
			t.Fatal(err)
		}
		if err := rt.EventQuery(stop); !errors.Is(err, ErrNotReady) {
			t.Errorf("EventQuery before completion = %v, want ErrNotReady", err)
		}
		if _, err := rt.EventElapsedTime(start, stop); !errors.Is(err, ErrNotReady) {
			t.Errorf("ElapsedTime before completion = %v, want ErrNotReady", err)
		}
		if err := rt.EventSynchronize(stop); err != nil {
			t.Fatal(err)
		}
		if err := rt.EventQuery(stop); err != nil {
			t.Errorf("EventQuery after sync = %v", err)
		}
		d, err := rt.EventElapsedTime(start, stop)
		if err != nil {
			t.Fatal(err)
		}
		if d < 50*time.Millisecond || d > 51*time.Millisecond {
			t.Errorf("elapsed = %v, want ~50ms", d)
		}
		if err := rt.EventDestroy(stop); err != nil {
			t.Fatal(err)
		}
		if err := rt.EventQuery(stop); err == nil {
			t.Error("query of destroyed event should fail")
		}
	})
}

func TestStreamSynchronizeNullWaitsForAll(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		s, _ := rt.StreamCreate()
		if err := rt.LaunchKernel(fixedKernel("k", time.Second), Dim3{X: 1}, Dim3{X: 1}, s); err != nil {
			t.Fatal(err)
		}
		if err := rt.StreamSynchronize(0); err != nil {
			t.Fatal(err)
		}
		if p.Now() < time.Second {
			t.Errorf("NULL-stream sync returned at %v with work on stream %d pending", p.Now(), s)
		}
	})
}

func TestMemcpyToSymbol(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		if err := rt.MemcpyToSymbol("cSim", []byte{9, 8, 7}); err != nil {
			t.Fatal(err)
		}
		ptr, ok := rt.SymbolPtr("cSim")
		if !ok {
			t.Fatal("symbol not registered")
		}
		b, err := rt.Device().Bytes(ptr, 3)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != 9 || b[2] != 7 {
			t.Errorf("symbol contents = %v", b)
		}
		// Second copy reuses the allocation.
		if err := rt.MemcpyToSymbol("cSim", []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if rt.Device().AllocCount() != 1 {
			t.Errorf("symbol realloc leaked: %d allocations", rt.Device().AllocCount())
		}
		if err := rt.MemcpyToSymbol("", nil); err == nil {
			t.Error("empty symbol should fail")
		}
	})
}

func TestMemcpyKindValidation(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		d, _ := rt.Malloc(8)
		h := make([]byte, 8)
		cases := []struct {
			dst, src Ptr
			kind     MemcpyKind
		}{
			{HostPtr(h), HostPtr(h), MemcpyHostToDevice},
			{DevicePtr(d), DevicePtr(d), MemcpyDeviceToHost},
			{HostPtr(h), HostPtr(h), MemcpyDeviceToDevice},
			{DevicePtr(d), HostPtr(h), MemcpyHostToHost},
			{DevicePtr(d), HostPtr(h), MemcpyKind(42)},
		}
		for i, c := range cases {
			if err := rt.Memcpy(c.dst, c.src, 8, c.kind); err == nil {
				t.Errorf("case %d: invalid direction accepted", i)
			}
		}
	})
}

func TestUnknownHandles(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		if err := rt.StreamSynchronize(Stream(99)); err == nil {
			t.Error("unknown stream accepted")
		}
		if err := rt.EventRecord(Event(99), 0); err == nil {
			t.Error("unknown event accepted")
		}
		if err := rt.StreamDestroy(Stream(99)); err == nil {
			t.Error("destroy of unknown stream accepted")
		}
		if err := rt.SetDevice(5); err == nil {
			t.Error("SetDevice out of range accepted")
		}
		if n, err := rt.GetDeviceCount(); err != nil || n != 1 {
			t.Errorf("GetDeviceCount = %d, %v", n, err)
		}
	})
}

func TestGetDeviceProperties(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		prop, err := rt.GetDeviceProperties()
		if err != nil {
			t.Fatal(err)
		}
		if prop.Name != "Tesla C2050" || prop.MultiProcessorCount != 14 || prop.ConcurrentKernels != 16 {
			t.Errorf("unexpected properties: %+v", prop)
		}
	})
}

func TestDriverAPIDelegation(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		if err := rt.CuInit(); err != nil {
			t.Fatal(err)
		}
		d, err := rt.CuMemAlloc(4)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.CuMemcpyHtoD(d, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 4)
		if err := rt.CuMemcpyDtoH(out, d); err != nil {
			t.Fatal(err)
		}
		if out[3] != 4 {
			t.Errorf("driver roundtrip = %v", out)
		}
		if err := rt.CuMemsetD8(d, 0xFF, 4); err != nil {
			t.Fatal(err)
		}
		if err := rt.CuCtxSynchronize(); err != nil {
			t.Fatal(err)
		}
		if err := rt.CuMemcpyDtoH(out, d); err != nil {
			t.Fatal(err)
		}
		if out[0] != 0xFF {
			t.Errorf("CuMemsetD8 payload missing: %v", out)
		}
		if err := rt.CuMemFree(d); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPinnedTransferFaster(t *testing.T) {
	spec := fastSpec()
	spec.PinnedFactor = 2
	var pageable, pinned time.Duration
	run(t, spec, Options{}, func(p *des.Proc, rt *Runtime) {
		d, _ := rt.Malloc(1 << 20)
		buf := make([]byte, 1<<20)
		t0 := p.Now()
		rt.Memcpy(DevicePtr(d), HostPtr(buf), 1<<20, MemcpyHostToDevice)
		pageable = p.Now() - t0
		pb, _ := rt.HostAlloc(1 << 20)
		t0 = p.Now()
		rt.Memcpy(DevicePtr(d), PinnedPtr(pb), 1<<20, MemcpyHostToDevice)
		pinned = p.Now() - t0
	})
	if pinned >= pageable {
		t.Errorf("pinned %v not faster than pageable %v", pinned, pageable)
	}
}

func TestMemGetInfo(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		_, _ = rt.Malloc(1 << 20)
		free, total, err := rt.MemGetInfo()
		if err != nil {
			t.Fatal(err)
		}
		if total-free != 1<<20 {
			t.Errorf("used = %d, want 1MiB", total-free)
		}
	})
}

func TestHostToHostMemcpy(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		src := []byte{1, 2, 3}
		dst := make([]byte, 3)
		if err := rt.Memcpy(HostPtr(dst), HostPtr(src), 3, MemcpyHostToHost); err != nil {
			t.Fatal(err)
		}
		if dst[2] != 3 {
			t.Errorf("H2H copy failed: %v", dst)
		}
	})
}

func TestDim3(t *testing.T) {
	if (Dim3{}).Count() != 1 {
		t.Error("zero Dim3 should count 1")
	}
	if (Dim3{X: 2, Y: 3, Z: 4}).Count() != 24 {
		t.Error("Dim3 count wrong")
	}
}

func TestErrorIs(t *testing.T) {
	err := errCode(CodeNotReady, "detail")
	if !errors.Is(err, ErrNotReady) {
		t.Error("errors.Is on matching code failed")
	}
	if errors.Is(err, ErrMemoryAllocation) {
		t.Error("errors.Is matched wrong code")
	}
	if Code(999).String() == "" {
		t.Error("unknown code String empty")
	}
}

// Property: H2D then D2H round-trips arbitrary payloads.
func TestPropMemcpyRoundTrip(t *testing.T) {
	prop := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		ok := true
		run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
			n := int64(len(data))
			d, err := rt.Malloc(n)
			if err != nil {
				ok = false
				return
			}
			if err := rt.Memcpy(DevicePtr(d), HostPtr(data), n, MemcpyHostToDevice); err != nil {
				ok = false
				return
			}
			out := make([]byte, n)
			if err := rt.Memcpy(HostPtr(out), DevicePtr(d), n, MemcpyDeviceToHost); err != nil {
				ok = false
				return
			}
			for i := range data {
				if out[i] != data[i] {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBodyKeepsArgsAcrossLaterConfigure checks that a kernel body reads
// its own arguments at completion time even though ConfigureCall reuses
// popped argument arrays: later launches — with and without a body — are
// configured and launched while the first kernel is still running.
func TestBodyKeepsArgsAcrossLaterConfigure(t *testing.T) {
	var seen [][]any
	body := func(ctx LaunchContext) { seen = append(seen, append([]any(nil), ctx.Args...)) }
	withBody := &Func{Name: "body", FixedCost: perfmodel.KernelCost{Fixed: 10 * time.Millisecond}, Body: body}
	bare := fixedKernel("bare", time.Millisecond)
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		launch := func(fn *Func, args ...any) {
			if err := rt.ConfigureCall(Dim3{X: 1}, Dim3{X: 1}, 0, 0); err != nil {
				t.Error(err)
			}
			for i, a := range args {
				if err := rt.SetupArgument(a, 8, int64(8*i)); err != nil {
					t.Error(err)
				}
			}
			if err := rt.Launch(fn); err != nil {
				t.Error(err)
			}
		}
		launch(withBody, 1, 2)
		launch(bare, 7, 8, 9)
		launch(withBody, 3)
		launch(bare, 4, 5, 6)
		if err := rt.ThreadSynchronize(); err != nil {
			t.Error(err)
		}
	})
	if len(seen) != 2 || len(seen[0]) != 2 || seen[0][0] != 1 || seen[0][1] != 2 ||
		len(seen[1]) != 1 || seen[1][0] != 3 {
		t.Errorf("bodies saw args %v, want [[1 2] [3]]", seen)
	}
}

// TestBareLaunchReusesArgs pins the steady-state cost of a bodiless
// configure + argument + launch + synchronise round trip at zero heap
// allocations: the popped configuration's argument array is reused and
// the device recycles the completed op.
func TestBareLaunchReusesArgs(t *testing.T) {
	bare := fixedKernel("bare", time.Millisecond)
	var arg any = 42
	allocs := -1.0
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		allocs = testing.AllocsPerRun(100, func() {
			rt.ConfigureCall(Dim3{X: 1}, Dim3{X: 1}, 0, 0)
			rt.SetupArgument(arg, 8, 0)
			rt.Launch(bare)
			rt.ThreadSynchronize()
		})
	})
	if allocs != 0 {
		t.Errorf("bare launch round trip: %v allocs/op, want 0", allocs)
	}
}

// submitCases are BenchmarkRuntimeSubmit's ops: one device-submitting
// call on a warm default runtime. Each asynchronous call is followed by
// a sleep long enough for the device to finish it, so every op starts
// from an idle device and the completed op is recycled.
var submitCases = []struct {
	name  string
	newOp func(tb testing.TB, p *des.Proc, rt *Runtime) func()
}{
	{"launch", func(tb testing.TB, p *des.Proc, rt *Runtime) func() {
		fn := &Func{Name: "bare"}
		return func() {
			if err := rt.LaunchKernel(fn, Dim3{X: 1}, Dim3{X: 1}, 0); err != nil {
				tb.Fatal(err)
			}
			p.Sleep(time.Millisecond)
		}
	}},
	{"eventrecord", func(tb testing.TB, p *des.Proc, rt *Runtime) func() {
		ev, err := rt.EventCreate()
		if err != nil {
			tb.Fatal(err)
		}
		return func() {
			if err := rt.EventRecord(ev, 0); err != nil {
				tb.Fatal(err)
			}
			p.Sleep(time.Millisecond)
		}
	}},
	{"memcpyasync", func(tb testing.TB, p *des.Proc, rt *Runtime) func() {
		d, err := rt.Malloc(4096)
		if err != nil {
			tb.Fatal(err)
		}
		host := make([]byte, 4096)
		return func() {
			if err := rt.MemcpyAsync(DevicePtr(d), HostPtr(host), 4096, MemcpyHostToDevice, 0); err != nil {
				tb.Fatal(err)
			}
			p.Sleep(time.Millisecond)
		}
	}},
	{"memcpy", func(tb testing.TB, p *des.Proc, rt *Runtime) func() {
		d, err := rt.Malloc(4096)
		if err != nil {
			tb.Fatal(err)
		}
		host := make([]byte, 4096)
		return func() {
			if err := rt.Memcpy(HostPtr(host), DevicePtr(d), 4096, MemcpyDeviceToHost); err != nil {
				tb.Fatal(err)
			}
		}
	}},
	{"memcpytosymbol", func(tb testing.TB, p *des.Proc, rt *Runtime) func() {
		src := make([]byte, 4096)
		return func() {
			if err := rt.MemcpyToSymbol("coeffs", src); err != nil {
				tb.Fatal(err)
			}
		}
	}},
}

// inHost runs fn as the only host process of a fresh engine, on a
// default runtime over a Tesla C2050.
func inHost(tb testing.TB, fn func(p *des.Proc, rt *Runtime)) {
	e := des.NewEngine()
	dev := gpusim.NewDevice(e, perfmodel.TeslaC2050())
	e.Spawn("host", func(p *des.Proc) { fn(p, NewRuntime(p, dev, Options{})) })
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkRuntimeSubmit(b *testing.B) {
	for _, c := range submitCases {
		b.Run(c.name, func(b *testing.B) {
			inHost(b, func(p *des.Proc, rt *Runtime) {
				op := c.newOp(b, p, rt)
				op()
				alloctest.Bench(b, op)
			})
		})
	}
}
