// Package gpusim simulates a CUDA-capable GPU device in virtual time.
//
// The device executes operations (kernels, memory copies, memsets, event
// records) enqueued on streams. Scheduling follows the CUDA 3.x execution
// model the paper's monitoring layer observes:
//
//   - operations within one stream execute in order;
//   - the legacy NULL stream (stream 0) is a barrier: a NULL-stream
//     operation waits for all previously enqueued work on every stream, and
//     operations enqueued later on any stream wait for it;
//   - kernels from different streams may overlap up to
//     GPUSpec.MaxConcurrent (16 on Fermi);
//   - host-to-device and device-to-host copies use separate copy engines
//     (the C2050 has one DMA engine per direction), each serial;
//   - the first operation that touches the device pays the context
//     initialisation cost (visible in the paper's Fig. 4 as a 2.4 s
//     cudaMalloc).
//
// Operations may carry a functional payload that runs at completion time in
// virtual time order, so simulated kernels can perform real data movement
// and arithmetic on simulated device memory.
package gpusim

import (
	"fmt"
	"time"

	"ipmgo/internal/des"
	"ipmgo/internal/devmodel"
	"ipmgo/internal/perfmodel"
	"ipmgo/internal/telemetry"
)

// Device is a simulated GPU. Create devices with NewDevice (bare
// perfmodel spec, one copy engine per direction, no power model) or
// NewDeviceSpec (a devmodel backend). A Device is driven from DES
// process context (the simulated host); it is not safe for use outside
// the owning engine.
type Device struct {
	eng   *des.Engine
	model devmodel.Spec
	spec  perfmodel.GPUSpec // == model.GPU, kept unindirected for hot paths

	streams      map[int]*Stream
	nextStreamID int
	created      []*Stream // every stream ever created, for recycle

	h2dTails []time.Duration // copy engine availability, host-to-device
	d2hTails []time.Duration // copy engine availability, device-to-host
	active   endHeap         // end times of scheduled kernels (concurrency limit)
	allTail  time.Duration   // completion of the latest op on any stream
	nullTail time.Duration   // completion of the latest NULL-stream op
	lastOp   Ref             // op with the latest completion time

	mem *memPool

	// Ops are recycled: when free is empty, newOp has recycle move every
	// completed op from the stream FIFOs to free, and pops from free
	// before it carves a new one from slab, the current allocation
	// chunk. The first slab holds 8 ops and each next one doubles the
	// last, up to opSlabSize. Anything that outlives an op's completion
	// holds a Ref, never the *Op, so a device needs only as many ops as
	// it has in flight.
	free []*Op
	slab []Op

	busyKernel time.Duration // accumulated kernel execution time
	busyCopy   time.Duration // accumulated copy-engine busy time
	busyMemset time.Duration // accumulated device-side memset time
	nOps       int

	// lost marks the device as failed (cudaErrorDeviceLost) at engine
	// position lostAt. Operations whose ticket is not before it never
	// complete: their Done signals never fire, so hosts synchronising on
	// them hang — exactly the behaviour a watchdog layer has to detect.
	lost   bool
	lostAt des.Ticket

	// OnKernelComplete, if set, is invoked at each kernel's completion
	// time with its exact execution record. The CUDA-profiler substrate
	// (internal/cudaprof) registers here; chains are the caller's job.
	OnKernelComplete func(KernelRecord)

	// Streaming telemetry: when tel is non-nil, every device operation is
	// recorded as a span on a per-stream or per-copy-engine track. Track
	// names are memoized so the per-op cost is a map lookup, and span
	// timestamps are the exact schedule the simulator computed at enqueue
	// time — the device-side ground truth of the paper's KTT.
	tel     *telemetry.Recorder
	telName string
	telGen  int      // bumped on AttachTelemetry; invalidates Stream.telTrack
	telH2D  []string // per-copy-engine track names, host-to-device
	telD2H  []string // per-copy-engine track names, device-to-host
}

// opSlabSize is the largest Op chunk; see Device.free.
const opSlabSize = 128

// newOp returns a recycled Op, or a fresh one from the slab when none has
// completed. The caller (enqueue) overwrites every field.
func (d *Device) newOp() *Op {
	if len(d.free) == 0 {
		d.recycle()
	}
	if n := len(d.free); n > 0 {
		op := d.free[n-1]
		d.free = d.free[:n-1]
		return op
	}
	if len(d.slab) == cap(d.slab) {
		n := min(max(2*cap(d.slab), 8), opSlabSize)
		d.slab = make([]Op, 0, n)
		// free is empty here; size it for every op carved so far, so
		// recycle never grows it.
		d.free = make([]*Op, 0, cap(d.free)+n)
	}
	d.slab = d.slab[:len(d.slab)+1]
	return &d.slab[len(d.slab)-1]
}

// recycle moves every completed op to the free list. A stream's ops
// complete in FIFO order, so each stream gives up the completed prefix
// of its FIFO. A lost device's ops from the loss on never complete, so
// they are never recycled: their handles stay pending and their signals
// waitable. Streams are visited in creation order, destroyed ones
// included, which keeps reuse deterministic.
func (d *Device) recycle() {
	for _, s := range d.created {
		op := s.oldest
		for op != nil && d.complete(op.ticket()) {
			next := op.next
			op.next = nil
			d.free = append(d.free, op)
			op = next
		}
		s.oldest = op
		if op == nil {
			s.newest = nil
		}
	}
}

// complete reports whether the op with ticket t has completed: the
// engine has passed t, and the device was not lost before it.
func (d *Device) complete(t des.Ticket) bool {
	if d.lost {
		return t.Before(d.lostAt)
	}
	return d.eng.Passed(t)
}

// KernelRecord is the exact ground-truth execution record of one kernel,
// as the real CUDA profiler would log it. Cost carries the launch's
// resource model so counter components can derive hardware-counter values
// without separate registration.
type KernelRecord struct {
	Name     string
	Stream   int
	Start    time.Duration // device timestamp at which execution began
	End      time.Duration
	GridDim  [3]int
	BlockDim [3]int
	Cost     perfmodel.KernelCost
}

// Duration returns the exact kernel execution time.
func (r KernelRecord) Duration() time.Duration { return r.End - r.Start }

// NewDevice creates a device from a bare performance spec: one copy
// engine per direction and no power model, exactly the pre-registry
// behaviour. Backend-aware callers use NewDeviceSpec.
func NewDevice(eng *des.Engine, spec perfmodel.GPUSpec) *Device {
	return NewDeviceSpec(eng, devmodel.Custom(spec))
}

// NewDeviceSpec creates a device from a devmodel backend spec, sizing
// the per-direction copy-engine pools from the spec.
func NewDeviceSpec(eng *des.Engine, model devmodel.Spec) *Device {
	engines := model.EffectiveCopyEngines()
	d := &Device{
		eng:      eng,
		model:    model,
		spec:     model.GPU,
		streams:  make(map[int]*Stream),
		mem:      newMemPool(model.GPU.MemBytes),
		h2dTails: make([]time.Duration, engines),
		d2hTails: make([]time.Duration, engines),
	}
	d.streams[0] = &Stream{id: 0, dev: d}
	d.created = append(d.created, d.streams[0])
	d.nextStreamID = 1
	return d
}

// AttachTelemetry routes every device operation into rec as a span.
// name labels the device's tracks ("gpu0" yields "gpu0/strm00",
// "gpu0/copyH2D", ...). Attach before enqueuing work; nil detaches.
func (d *Device) AttachTelemetry(rec *telemetry.Recorder, name string) {
	d.tel = rec
	d.telName = name
	d.telGen++ // drop track names cached under the previous attachment
	engines := len(d.h2dTails)
	d.telH2D = make([]string, engines)
	d.telD2H = make([]string, engines)
	for i := 0; i < engines; i++ {
		if engines == 1 {
			// Single-engine devices keep the historical track names.
			d.telH2D[i] = name + "/copyH2D"
			d.telD2H[i] = name + "/copyD2H"
		} else {
			d.telH2D[i] = fmt.Sprintf("%s/copyH2D%d", name, i)
			d.telD2H[i] = fmt.Sprintf("%s/copyD2H%d", name, i)
		}
	}
}

// streamTrack returns the track name of a stream, cached on the Stream
// itself (built with fmt once per stream per telemetry attachment, then a
// field read per op).
func (d *Device) streamTrack(s *Stream) string {
	if s.telGen != d.telGen || s.telTrack == "" {
		s.telTrack = fmt.Sprintf("%s/strm%02d", d.telName, s.id)
		s.telGen = d.telGen
	}
	return s.telTrack
}

// recordStreamSpan emits one span on the op's stream track when
// telemetry is attached. The disabled path is a single nil check; track
// names are cached per stream.
func (d *Device) recordStreamSpan(s *Stream, class telemetry.SpanClass, op *Op, bytes int64) {
	if d.tel == nil {
		return
	}
	d.tel.Record(telemetry.Span{
		Track: d.streamTrack(s), Name: op.Name, Class: class,
		Start: op.Start, End: op.End, Bytes: bytes,
	})
}

// Spec returns the device's performance specification.
func (d *Device) Spec() perfmodel.GPUSpec { return d.spec }

// Model returns the full backend spec the device was built from (for a
// NewDevice device, an ad-hoc spec wrapping the perfmodel parameters).
func (d *Device) Model() devmodel.Spec { return d.model }

// Power returns the device's power model (zero when absent).
func (d *Device) Power() devmodel.PowerSpec { return d.model.Power }

// Engine returns the owning DES engine.
func (d *Device) Engine() *des.Engine { return d.eng }

// DefaultStream returns the legacy NULL stream.
func (d *Device) DefaultStream() *Stream { return d.streams[0] }

// CreateStream creates a new non-NULL stream.
func (d *Device) CreateStream() *Stream {
	s := &Stream{id: d.nextStreamID, dev: d}
	d.nextStreamID++
	d.streams[s.id] = s
	d.created = append(d.created, s)
	return s
}

// DestroyStream removes the stream. Pending work is unaffected (it has
// already been scheduled). Destroying the NULL stream is an error.
func (d *Device) DestroyStream(s *Stream) error {
	if s.id == 0 {
		return fmt.Errorf("gpusim: cannot destroy the NULL stream")
	}
	delete(d.streams, s.id)
	return nil
}

// StreamByID returns the stream with the given id, or nil.
func (d *Device) StreamByID(id int) *Stream { return d.streams[id] }

// LastOp returns a handle to the operation with the latest completion
// time enqueued so far; the zero Ref if the device is idle since
// creation. Waiting on its Done signal (when non-nil) is equivalent to
// cudaDeviceSynchronize.
func (d *Device) LastOp() Ref { return d.lastOp }

// BusyKernelTime returns the accumulated kernel execution time (summed per
// kernel, so overlapping kernels count multiply).
func (d *Device) BusyKernelTime() time.Duration { return d.busyKernel }

// BusyCopyTime returns the accumulated copy-engine busy time across all
// engines and directions (including intra-device copies).
func (d *Device) BusyCopyTime() time.Duration { return d.busyCopy }

// BusyMemsetTime returns the accumulated device-side memset time.
func (d *Device) BusyMemsetTime() time.Duration { return d.busyMemset }

// ActiveEnergyNJ returns the device's attributable active energy so far
// in nanojoules: per-class busy time priced by the power model. Idle
// draw is time-based and left to the observer (it knows the wallclock).
func (d *Device) ActiveEnergyNJ() int64 {
	return d.model.Power.ActiveEnergyNJ(d.busyKernel, d.busyCopy, d.busyMemset)
}

// Ops returns the number of operations enqueued so far.
func (d *Device) Ops() int { return d.nOps }

// MarkLost fails the device at the engine's current position. Every op
// whose completion the engine has not yet passed never completes (its
// Done signal stays unfired) and kernel-completion callbacks stop
// firing; enqueuing new work remains possible but it never completes.
// The call is idempotent: the first loss counts.
func (d *Device) MarkLost() {
	if !d.lost {
		d.lost = true
		d.lostAt = d.eng.Position()
	}
}

// Lost reports whether the device has been marked lost.
func (d *Device) Lost() bool { return d.lost }

// endHeap is a binary min-heap of kernel end times, used to enforce the
// MaxConcurrent kernel limit. It is typed, so pushing an end time boxes
// nothing; pop order is by value alone, so the heap's shape never shows.
type endHeap []time.Duration

func (h *endHeap) push(v time.Duration) {
	*h = append(*h, v)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *endHeap) pop() time.Duration {
	a := *h
	v := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < n && a[l] < a[m] {
			m = l
		}
		if r := l + 1; r < n && a[r] < a[m] {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	*h = a
	return v
}

// kernelStart returns the start time for a kernel that is ready at t,
// respecting the device-wide concurrency limit, and registers its end time.
func (d *Device) kernelStart(t, dur time.Duration) time.Duration {
	for len(d.active) > 0 && d.active[0] <= t {
		d.active.pop()
	}
	start := t
	if len(d.active) >= d.spec.MaxConcurrent {
		start = d.active.pop()
		if start < t {
			start = t
		}
	}
	d.active.push(start + dur)
	return start
}
