package clsim

import (
	"testing"
	"time"

	"ipmgo/internal/des"
	"ipmgo/internal/gpusim"
	"ipmgo/internal/perfmodel"
)

func spec() perfmodel.GPUSpec {
	s := perfmodel.TeslaC2050()
	s.ContextInit = 0
	s.APICallCost = 0
	s.KernelDispatch = 0
	s.KernelLaunch = 0
	s.PCIeLatency = 0
	s.PCIeH2DGBs = 1
	s.PCIeD2HGBs = 1
	return s
}

func run(t *testing.T, fn func(c *Context, p *des.Proc)) time.Duration {
	t.Helper()
	e := des.NewEngine()
	dev := gpusim.NewDevice(e, spec())
	e.Spawn("host", func(p *des.Proc) { fn(CreateContext(p, dev), p) })
	if err := e.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	return e.Now()
}

func TestFunctionalKernelRoundTrip(t *testing.T) {
	// Doubling kernel: write, execute, read back.
	doubler := &Kernel{
		Name: "doubler",
		Cost: perfmodel.KernelCost{Fixed: time.Millisecond},
		Body: func(dev *gpusim.Device, args map[int]any, global, local []int) {
			ptr := args[0].(gpusim.DevPtr)
			n := args[1].(int)
			b, err := dev.Bytes(ptr, gpusim.F64Bytes(n))
			if err != nil {
				return
			}
			v := gpusim.Float64s(b)
			for i := 0; i < n; i++ {
				v.Set(i, 2*v.At(i))
			}
		},
	}
	run(t, func(c *Context, p *des.Proc) {
		q, err := c.CreateCommandQueue()
		if err != nil {
			t.Fatal(err)
		}
		const n = 100
		buf, err := c.CreateBuffer(gpusim.F64Bytes(n))
		if err != nil {
			t.Fatal(err)
		}
		host := make([]byte, gpusim.F64Bytes(n))
		v := gpusim.Float64s(host)
		for i := 0; i < n; i++ {
			v.Set(i, float64(i))
		}
		if _, err := c.EnqueueWriteBuffer(q, buf, true, 0, host); err != nil {
			t.Fatal(err)
		}
		if err := c.SetKernelArg(doubler, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := c.SetKernelArg(doubler, 1, n); err != nil {
			t.Fatal(err)
		}
		if _, err := c.EnqueueNDRangeKernel(q, doubler, []int{n}, []int{32}); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, gpusim.F64Bytes(n))
		if _, err := c.EnqueueReadBuffer(q, buf, true, 0, out); err != nil {
			t.Fatal(err)
		}
		ov := gpusim.Float64s(out)
		for i := 0; i < n; i++ {
			if ov.At(i) != 2*float64(i) {
				t.Fatalf("out[%d] = %v, want %v", i, ov.At(i), 2*float64(i))
			}
		}
		if err := c.ReleaseMemObject(buf); err != nil {
			t.Fatal(err)
		}
		if err := c.ReleaseCommandQueue(q); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEventProfilingInfo(t *testing.T) {
	k := &Kernel{Name: "k", Cost: perfmodel.KernelCost{Fixed: 7 * time.Millisecond}}
	run(t, func(c *Context, p *des.Proc) {
		q, _ := c.CreateCommandQueue()
		ev, err := c.EnqueueNDRangeKernel(q, k, []int{64}, []int{64})
		if err != nil {
			t.Fatal(err)
		}
		// Not complete yet: profiling info unavailable.
		if _, _, err := c.GetEventProfilingInfo(ev); err == nil {
			t.Error("profiling info available before completion")
		}
		if err := c.WaitForEvents(ev); err != nil {
			t.Fatal(err)
		}
		start, end, err := c.GetEventProfilingInfo(ev)
		if err != nil {
			t.Fatal(err)
		}
		if end-start != 7*time.Millisecond {
			t.Errorf("profiled duration = %v, want 7ms", end-start)
		}
	})
}

func TestBlockingVsAsyncRead(t *testing.T) {
	k := &Kernel{Name: "slow", Cost: perfmodel.KernelCost{Fixed: 100 * time.Millisecond}}
	var asyncReturn time.Duration
	total := run(t, func(c *Context, p *des.Proc) {
		q, _ := c.CreateCommandQueue()
		buf, _ := c.CreateBuffer(1024)
		c.EnqueueNDRangeKernel(q, k, []int{1}, nil)
		if _, err := c.EnqueueReadBuffer(q, buf, false, 0, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		asyncReturn = p.Now()
		c.Finish(q)
	})
	if asyncReturn >= 100*time.Millisecond {
		t.Errorf("async read blocked until %v", asyncReturn)
	}
	if total < 100*time.Millisecond {
		t.Errorf("Finish returned at %v before kernel completion", total)
	}
}

func TestQueueOrdering(t *testing.T) {
	// Two commands on one in-order queue serialise; on two queues they
	// overlap.
	k := &Kernel{Name: "k", Cost: perfmodel.KernelCost{Fixed: 50 * time.Millisecond}}
	oneQueue := run(t, func(c *Context, p *des.Proc) {
		q, _ := c.CreateCommandQueue()
		c.EnqueueNDRangeKernel(q, k, []int{1}, nil)
		c.EnqueueNDRangeKernel(q, k, []int{1}, nil)
		c.Finish(q)
	})
	twoQueues := run(t, func(c *Context, p *des.Proc) {
		q1, _ := c.CreateCommandQueue()
		q2, _ := c.CreateCommandQueue()
		c.EnqueueNDRangeKernel(q1, k, []int{1}, nil)
		c.EnqueueNDRangeKernel(q2, k, []int{1}, nil)
		c.Finish(q1)
		c.Finish(q2)
	})
	if oneQueue < 100*time.Millisecond {
		t.Errorf("in-order queue did not serialise: %v", oneQueue)
	}
	if twoQueues >= oneQueue {
		t.Errorf("two queues (%v) did not overlap vs one (%v)", twoQueues, oneQueue)
	}
}

func TestValidation(t *testing.T) {
	run(t, func(c *Context, p *des.Proc) {
		if _, err := c.EnqueueNDRangeKernel(Queue(99), &Kernel{Name: "k"}, []int{1}, nil); err == nil {
			t.Error("invalid queue accepted")
		}
		q, _ := c.CreateCommandQueue()
		if _, err := c.EnqueueNDRangeKernel(q, nil, []int{1}, nil); err == nil {
			t.Error("nil kernel accepted")
		}
		if _, err := c.EnqueueNDRangeKernel(q, &Kernel{Name: "k"}, nil, nil); err == nil {
			t.Error("empty NDRange accepted")
		}
		if _, err := c.EnqueueNDRangeKernel(q, &Kernel{Name: "k"}, []int{1, 1, 1, 1}, nil); err == nil {
			t.Error("4D NDRange accepted")
		}
		if _, err := c.EnqueueWriteBuffer(q, Mem(99), true, 0, nil); err == nil {
			t.Error("invalid mem accepted")
		}
		if err := c.SetKernelArg(nil, 0, 1); err == nil {
			t.Error("nil kernel arg accepted")
		}
		if err := c.SetKernelArg(&Kernel{Name: "k"}, -1, 1); err == nil {
			t.Error("negative index accepted")
		}
		if err := c.SetKernelArg(&Kernel{Name: "k"}, 0, Mem(99)); err == nil {
			t.Error("invalid mem arg accepted")
		}
		if err := c.WaitForEvents(Event(99)); err == nil {
			t.Error("invalid event accepted")
		}
		if err := c.ReleaseMemObject(Mem(99)); err == nil {
			t.Error("invalid release accepted")
		}
		if err := c.ReleaseCommandQueue(Queue(99)); err == nil {
			t.Error("invalid queue release accepted")
		}
	})
}

// TestStaleEventKeepsProfilingInfo checks an event whose command completed
// — and whose device op has since been reused by a later command — still
// reports complete with its own timestamps.
func TestStaleEventKeepsProfilingInfo(t *testing.T) {
	k := &Kernel{Name: "k", Cost: perfmodel.KernelCost{Fixed: 7 * time.Millisecond}}
	run(t, func(c *Context, p *des.Proc) {
		q, _ := c.CreateCommandQueue()
		buf, _ := c.CreateBuffer(1000)
		t0 := p.Now()
		wev, err := c.EnqueueWriteBuffer(q, buf, true, 0, make([]byte, 1000))
		if err != nil {
			t.Error(err)
			return
		}
		t1 := p.Now()
		// The copy's op is free now; the kernel takes it over.
		kev, err := c.EnqueueNDRangeKernel(q, k, []int{1}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if start, end, err := c.GetEventProfilingInfo(wev); err != nil || start != t0 || end != t1 {
			t.Errorf("stale write event: [%v, %v] %v, want [%v, %v]", start, end, err, t0, t1)
		}
		if err := c.WaitForEvents(wev); err != nil || p.Now() != t1 {
			t.Errorf("WaitForEvents on a completed event: now %v, err %v; want %v, nil", p.Now(), err, t1)
		}
		if _, _, err := c.GetEventProfilingInfo(kev); err == nil {
			t.Error("kernel event complete before the kernel ran")
		}
		if err := c.WaitForEvents(kev); err != nil || p.Now() != t1+7*time.Millisecond {
			t.Errorf("WaitForEvents on the kernel: now %v, err %v; want %v", p.Now(), err, t1+7*time.Millisecond)
		}
	})
}
