package gpusim

import (
	"testing"
	"time"

	"ipmgo/internal/des"
	"ipmgo/internal/perfmodel"
)

func TestDeviceToDeviceCopyAndMemsetDurations(t *testing.T) {
	e := des.NewEngine()
	d := NewDevice(e, testSpec())
	var copyOp, setOp *Op
	e.Spawn("host", func(p *des.Proc) {
		s := d.CreateStream()
		copyOp = d.EnqueueCopy(s, perfmodel.DeviceToDevice, 72e9, false, nil) // 1s at 144/2 GB/s
		setOp = d.EnqueueMemset(s, 144e9, nil)                                // 1s at 144 GB/s
		p.Wait(setOp.Done())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if dur := copyOp.Duration(); dur < 990*time.Millisecond || dur > 1010*time.Millisecond {
		t.Errorf("D2D duration = %v, want ~1s", dur)
	}
	if dur := setOp.Duration(); dur < 990*time.Millisecond || dur > 1010*time.Millisecond {
		t.Errorf("memset duration = %v, want ~1s", dur)
	}
	// Tiny memset has the floor.
	e2 := des.NewEngine()
	d2 := NewDevice(e2, testSpec())
	op := d2.EnqueueMemset(d2.DefaultStream(), 1, nil)
	if op.Duration() != time.Microsecond {
		t.Errorf("memset floor = %v", op.Duration())
	}
}

func TestOpMetadata(t *testing.T) {
	e := des.NewEngine()
	d := NewDevice(e, testSpec())
	s := d.CreateStream()
	op := d.EnqueueCopy(s, perfmodel.HostToDevice, 1000, false, nil)
	if op.Kind != OpCopy || op.Name != "memcpy(H2D)" || int(op.Stream) != s.ID() {
		t.Errorf("op metadata = %+v", op)
	}
	if OpKernel.String() != "kernel" || OpCopy.String() != "copy" ||
		OpMemset.String() != "memset" || OpEventRecord.String() != "event" || OpKind(9).String() != "?" {
		t.Error("OpKind strings wrong")
	}
	if s.Tail() != op.End {
		t.Errorf("stream tail = %v, want %v", s.Tail(), op.End)
	}
}

func TestEventRerecordResetsCompletion(t *testing.T) {
	e := des.NewEngine()
	d := NewDevice(e, testSpec())
	ev := d.NewEvent()
	e.Spawn("host", func(p *des.Proc) {
		s := d.CreateStream()
		ev.Record(s)
		p.Wait(ev.Done())
		first, _ := ev.Timestamp()
		// Re-record after more work: the timestamp must move.
		d.LaunchKernel(s, "k", perfmodel.KernelCost{Fixed: 10 * time.Millisecond}, [3]int{}, [3]int{}, nil)
		ev.Record(s)
		if ev.Query() {
			t.Error("re-recorded event still reports ready")
		}
		p.Wait(ev.Done())
		second, _ := ev.Timestamp()
		if second <= first {
			t.Errorf("timestamps did not advance: %v -> %v", first, second)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestViewsCopyInOut(t *testing.T) {
	b := make([]byte, F64Bytes(4))
	v := Float64s(b)
	v.CopyIn([]float64{1.5, -2.5, 3.25, 0})
	if v.Len() != 4 || v.At(1) != -2.5 {
		t.Errorf("f64 view: len=%d at1=%v", v.Len(), v.At(1))
	}
	out := make([]float64, 4)
	v.CopyOut(out)
	if out[2] != 3.25 {
		t.Errorf("copyout = %v", out)
	}

	cb := make([]byte, C128Bytes(2))
	cv := Complex128s(cb)
	cv.CopyIn([]complex128{1 + 2i, -3 - 4i})
	if cv.Len() != 2 || cv.At(1) != -3-4i {
		t.Errorf("c128 view: len=%d at1=%v", cv.Len(), cv.At(1))
	}
	cout := make([]complex128, 2)
	cv.CopyOut(cout)
	if cout[0] != 1+2i {
		t.Errorf("c128 copyout = %v", cout)
	}
}

func TestDevPtrHelpers(t *testing.T) {
	var null DevPtr
	if !null.IsNull() {
		t.Error("zero DevPtr not null")
	}
	e := des.NewEngine()
	d := NewDevice(e, testSpec())
	p, _ := d.Alloc(100)
	if p.IsNull() {
		t.Error("allocated pointer is null")
	}
	q := p.Offset(10)
	if q.String() == "" || q.IsNull() {
		t.Error("offset pointer malformed")
	}
	if _, err := d.Alloc(-1); err == nil {
		t.Error("negative alloc accepted")
	}
}
