package cudart

import (
	"errors"
	"testing"
	"time"

	"ipmgo/internal/des"
)

func TestDeviceToDeviceMemcpy(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		a, _ := rt.Malloc(16)
		b, _ := rt.Malloc(16)
		if err := rt.Memcpy(DevicePtr(a), HostPtr([]byte{1, 2, 3, 4}), 4, MemcpyHostToDevice); err != nil {
			t.Fatal(err)
		}
		if err := rt.Memcpy(DevicePtr(b), DevicePtr(a), 4, MemcpyDeviceToDevice); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 4)
		if err := rt.Memcpy(HostPtr(out), DevicePtr(b), 4, MemcpyDeviceToHost); err != nil {
			t.Fatal(err)
		}
		if out[0] != 1 || out[3] != 4 {
			t.Errorf("D2D roundtrip = %v", out)
		}
	})
}

func TestMemcpyAsyncHostToHostAndValidation(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		rt.Malloc(8)
		src, dst := []byte{9, 8}, make([]byte, 2)
		if err := rt.MemcpyAsync(HostPtr(dst), HostPtr(src), 2, MemcpyHostToHost, 0); err != nil {
			t.Fatal(err)
		}
		if dst[0] != 9 {
			t.Errorf("async H2H copy = %v", dst)
		}
		if err := rt.MemcpyAsync(HostPtr(dst), HostPtr(src), 2, MemcpyHostToHost, Stream(77)); err == nil {
			t.Error("unknown stream accepted")
		}
		if err := rt.MemcpyAsync(DevicePtr(DevPtr{}), DevicePtr(DevPtr{}), 2, MemcpyHostToDevice, 0); err == nil {
			t.Error("invalid direction accepted")
		}
	})
}

func TestHostAllocValidation(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		if _, err := rt.HostAlloc(-1); err == nil {
			t.Error("negative host alloc accepted")
		}
		b, err := rt.HostAlloc(128)
		if err != nil || len(b) != 128 {
			t.Errorf("HostAlloc = %d bytes, %v", len(b), err)
		}
	})
}

func TestEventSynchronizeUnrecorded(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		ev, _ := rt.EventCreate()
		// Synchronising an unrecorded event returns immediately (CUDA
		// treats it as complete).
		before := p.Now()
		if err := rt.EventSynchronize(ev); err != nil {
			t.Fatal(err)
		}
		if p.Now() != before {
			t.Error("unrecorded event sync advanced time")
		}
		if err := rt.EventSynchronize(Event(99)); err == nil {
			t.Error("unknown event accepted")
		}
		if err := rt.EventDestroy(Event(99)); err == nil {
			t.Error("unknown destroy accepted")
		}
	})
}

// TestEventHandleBounds checks every way a handle can name no live event
// fails with cudaErrorInvalidResourceHandle: the zero handle, one past
// the last created, a destroyed one, and destroying it a second time.
func TestEventHandleBounds(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		a, _ := rt.EventCreate()
		b, _ := rt.EventCreate()
		if err := rt.EventDestroy(a); err != nil {
			t.Fatalf("EventDestroy(%d) = %v", a, err)
		}
		for name, call := range map[string]func() error{
			"zero handle":    func() error { return rt.EventQuery(0) },
			"past the end":   func() error { return rt.EventQuery(b + 1) },
			"destroyed":      func() error { return rt.EventQuery(a) },
			"second destroy": func() error { return rt.EventDestroy(a) },
		} {
			var e *Error
			if err := call(); !errors.As(err, &e) || e.Code != CodeInvalidResourceHandle {
				t.Errorf("%s: err = %v, want %v", name, err, CodeInvalidResourceHandle)
			}
		}
		if err := rt.EventSynchronize(b); err != nil {
			t.Errorf("live event %d after destroying %d: %v", b, a, err)
		}
	})
}

func TestThreadSynchronizeIdleDevice(t *testing.T) {
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		if err := rt.ThreadSynchronize(); err != nil {
			t.Fatal(err) // no work: returns immediately
		}
		if err := rt.StreamSynchronize(0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLaunchBlockingEnv(t *testing.T) {
	// ConfigureCall with an unknown stream fails and records sticky error.
	run(t, fastSpec(), Options{}, func(p *des.Proc, rt *Runtime) {
		if err := rt.ConfigureCall(Dim3{X: 1}, Dim3{X: 1}, 0, Stream(9)); err == nil {
			t.Error("bad configure stream accepted")
		}
		var ce *Error
		if err := rt.GetLastError(); !errors.As(err, &ce) {
			t.Errorf("sticky error = %v", err)
		}
	})
}

func TestMallocOOM(t *testing.T) {
	spec := fastSpec()
	spec.MemBytes = 100
	run(t, spec, Options{}, func(p *des.Proc, rt *Runtime) {
		if _, err := rt.Malloc(1000); !errors.Is(err, ErrMemoryAllocation) {
			t.Errorf("OOM error = %v", err)
		}
		if err := rt.Free(DevPtr{}); err != nil {
			t.Errorf("free of null pointer: %v", err)
		}
	})
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.DeviceQueryCost != 2*time.Microsecond {
		t.Errorf("defaults = %+v", o)
	}
}
