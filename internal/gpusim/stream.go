package gpusim

import (
	"time"

	"ipmgo/internal/des"
	"ipmgo/internal/perfmodel"
	"ipmgo/internal/telemetry"
)

// Stream is an in-order execution queue on a device. Stream 0 is the
// legacy NULL stream with barrier semantics (see package docs).
type Stream struct {
	id   int
	dev  *Device
	tail time.Duration // completion of the latest op on this stream
	last Ref

	// oldest and newest bound the stream's op FIFO: every op enqueued
	// on the stream and not yet recycled, linked through Op.next in
	// enqueue order — which is completion order, (End, seq), because a
	// stream runs its ops one after another. See Device.recycle.
	oldest, newest *Op

	telTrack string // cached telemetry track name, see Device.streamTrack
	telGen   int    // Device.telGen this cache entry belongs to
}

// ID returns the stream identifier (0 for the NULL stream).
func (s *Stream) ID() int { return s.id }

// Last returns a handle to the most recently enqueued operation on the
// stream; the zero Ref if there is none. Waiting on its Done signal (when
// non-nil) is equivalent to cudaStreamSynchronize for a non-NULL stream.
func (s *Stream) Last() Ref { return s.last }

// Tail returns the virtual time at which all currently enqueued work on
// the stream completes.
func (s *Stream) Tail() time.Duration { return s.tail }

// OpKind classifies device operations.
type OpKind uint8

const (
	OpKernel OpKind = iota
	OpCopy
	OpMemset
	OpEventRecord
)

func (k OpKind) String() string {
	switch k {
	case OpKernel:
		return "kernel"
	case OpCopy:
		return "copy"
	case OpMemset:
		return "memset"
	case OpEventRecord:
		return "event"
	}
	return "?"
}

// Op is a scheduled device operation. Its timing is fixed at enqueue time
// (the simulator schedules greedily in enqueue order, which is exact for a
// non-preemptive device), and with it the op's place in the engine's
// event order: enqueue reserves the ticket (End, seq) that completion
// would be dispatched at (des.Engine.Reserve).
//
// An op with a payload is armed at once, and the engine runs the op at
// its ticket. Any other op completes silently: Complete, DevEvent.Query
// and Timestamp compare its ticket with the engine's position, and only
// a Done call while the op is in flight arms it, so that its signal
// fires at exactly that ticket. A KTT event record nobody polls before
// it passes costs no dispatch at all.
//
// Ops carry their completion signal inline and are recycled through a
// per-device free list once they complete (see Device.recycle), so
// enqueuing costs no per-op heap allocation. An *Op is valid only until
// it completes: whoever enqueues one waits on it at once or not at all,
// and anything kept past completion is a Ref.
type Op struct {
	Kind   OpKind
	armed  bool // Run is queued at the op's ticket
	Stream int32
	Name   string
	Start  time.Duration
	End    time.Duration

	seq     uint64 // ticket sequence number; also the Ref generation
	dev     *Device
	next    *Op // stream FIFO link, see Stream.oldest
	payload func()
	done    des.Signal
}

// Done returns the completion signal. While the op is in flight this
// arms it, so the signal fires at the op's end; on a lost device the
// signal never fires. Once the op has completed unobserved, the signal
// is marked fired on the spot.
func (o *Op) Done() *des.Signal {
	if sig := o.signal(); sig != nil {
		return sig
	}
	o.done.Fire() // no waiters: nobody has asked for it before
	return &o.done
}

// signal arms the op if it is in flight and returns its completion
// signal, or returns nil once the op has completed.
func (o *Op) signal() *des.Signal {
	d := o.dev
	t := o.ticket()
	if d.complete(t) {
		return nil
	}
	if !o.armed && !d.lost {
		o.armed = true
		d.eng.Arm(t, o)
	}
	return &o.done
}

// ticket returns the op's place in the engine's event order.
func (o *Op) ticket() des.Ticket { return des.Ticket{At: o.End, Seq: o.seq} }

// Ref returns a handle to the op that stays meaningful after the op
// completes and is reused.
func (o *Op) Ref() Ref { return Ref{op: o, seq: o.seq, Start: o.Start, End: o.End} }

// Run completes an armed op: it runs the payload and fires the Done
// signal. It implements des.Runner: the engine dispatches the op at its
// ticket, with no closure allocated at enqueue. On a lost device the
// completion is suppressed — the Done signal never fires, so
// synchronising hosts hang (see Device.MarkLost). The op stays on its
// stream's FIFO either way; recycle frees it.
func (o *Op) Run() {
	if o.dev.lost {
		return
	}
	if fn := o.payload; fn != nil {
		o.payload = nil
		fn()
	}
	o.done.Fire()
}

// Duration returns the operation's execution time.
func (o *Op) Duration() time.Duration { return o.End - o.Start }

// Ref is a handle to an Op that stays valid after the op completes: the
// op pointer, the op's ticket sequence number when the handle was taken,
// and the op's schedule copied at enqueue time. Every enqueue takes a
// new sequence number, so once the op is recycled a stale handle
// mismatches and reads as completed — the same rule des applies to its
// event slots. The zero Ref refers to no op and also reads as complete.
type Ref struct {
	op    *Op
	seq   uint64
	Start time.Duration
	End   time.Duration
}

// Complete reports whether the referenced op has completed (or there is
// none). A lost device's ops never complete.
func (r Ref) Complete() bool {
	return r.op == nil || r.op.seq != r.seq || r.op.dev.complete(r.op.ticket())
}

// Done returns the op's completion signal while the op is in flight,
// arming the op, and nil once it has completed (or for the zero Ref):
// nil means there is nothing to wait for. Wait on the signal at once; do
// not keep it.
func (r Ref) Done() *des.Signal {
	if r.op == nil || r.op.seq != r.seq {
		return nil
	}
	return r.op.signal()
}

// earliest returns the earliest time an op enqueued now on stream s may
// begin, honouring stream order and NULL-stream barrier semantics.
func (d *Device) earliest(s *Stream) time.Duration {
	t := d.eng.Now()
	if s.tail > t {
		t = s.tail
	}
	if s.id == 0 {
		// NULL-stream op waits for everything enqueued so far.
		if d.allTail > t {
			t = d.allTail
		}
	} else if d.nullTail > t {
		// Other streams wait for prior NULL-stream ops.
		t = d.nullTail
	}
	return t
}

// enqueue finalises scheduling of an op that is ready at `start` and runs
// for dur: it reserves the op's ticket, appends the op to the stream's
// FIFO, and arms it at once if it carries a payload (unless the device is
// lost: a lost op is never armed).
func (d *Device) enqueue(s *Stream, kind OpKind, name string, start, dur time.Duration, payload func()) *Op {
	end := start + dur
	op := d.newOp()
	op.Kind = kind
	op.armed = false
	op.Stream = int32(s.id)
	op.Name = name
	op.Start = start
	op.End = end
	op.seq = d.eng.Reserve(end).Seq
	op.dev = d
	op.next = nil
	op.payload = payload
	d.eng.InitSignal(&op.done, name)
	if s.newest == nil {
		s.oldest = op
	} else {
		s.newest.next = op
	}
	s.newest = op
	if payload != nil && !d.lost {
		op.armed = true
		d.eng.Arm(op.ticket(), op)
	}
	ref := op.Ref()
	s.tail = end
	s.last = ref
	if end > d.allTail {
		d.allTail = end
	}
	if s.id == 0 {
		d.nullTail = end
	}
	if d.lastOp.op == nil || end > d.lastOp.End {
		d.lastOp = ref
	}
	d.nOps++
	return op
}

// LaunchKernel enqueues a kernel with the given cost model on the stream.
// fn, if non-nil, is the kernel's functional payload, executed at the
// kernel's completion time. grid and block describe the launch
// configuration for profiling records; pass zero values when irrelevant.
func (d *Device) LaunchKernel(s *Stream, name string, cost perfmodel.KernelCost, grid, block [3]int, fn func()) *Op {
	ready := d.earliest(s)
	// The device-side dispatch gap separates launch from execution; it is
	// the constant the paper's event-based timing cannot separate from the
	// kernel itself.
	ready += d.spec.KernelDispatch
	dur := cost.Duration(d.spec)
	start := d.kernelStart(ready, dur)
	op := d.enqueue(s, OpKernel, name, start, dur, fn)
	d.busyKernel += dur
	d.recordStreamSpan(s, telemetry.ClassKernel, op, 0)
	if cb := d.OnKernelComplete; cb != nil {
		rec := KernelRecord{Name: name, Stream: s.id, Start: start, End: op.End, GridDim: grid, BlockDim: block, Cost: cost}
		d.eng.Schedule(op.End, func() {
			if d.lost {
				return
			}
			cb(rec)
		})
	}
	return op
}

// memcpyOpNames pre-interns the per-direction op labels so EnqueueCopy
// does not rebuild the same string on every transfer. The strings must
// stay byte-identical to "memcpy(" + dir.String() + ")".
var memcpyOpNames = [...]string{
	perfmodel.HostToDevice:   "memcpy(H2D)",
	perfmodel.DeviceToHost:   "memcpy(D2H)",
	perfmodel.DeviceToDevice: "memcpy(D2D)",
}

func memcpyOpName(dir perfmodel.TransferDir) string {
	if int(dir) < len(memcpyOpNames) && memcpyOpNames[dir] != "" {
		return memcpyOpNames[dir]
	}
	return "memcpy(" + dir.String() + ")"
}

// pickEngine returns the index of the engine from tails that can start
// soonest (first index on ties, so a single-engine pool behaves exactly
// like the old scalar tail).
func pickEngine(tails []time.Duration) int {
	ei := 0
	for i := 1; i < len(tails); i++ {
		if tails[i] < tails[ei] {
			ei = i
		}
	}
	return ei
}

// EnqueueCopy enqueues a PCIe (or intra-device) copy of n bytes. The copy
// contends for the per-direction copy-engine pool (the C2050 has one DMA
// engine per direction; A100-class devices have more). fn runs at
// completion (the functional data movement).
func (d *Device) EnqueueCopy(s *Stream, dir perfmodel.TransferDir, n int64, pinned bool, fn func()) *Op {
	ready := d.earliest(s)
	engine := -1
	switch dir {
	case perfmodel.HostToDevice:
		engine = pickEngine(d.h2dTails)
		if d.h2dTails[engine] > ready {
			ready = d.h2dTails[engine]
		}
	case perfmodel.DeviceToHost:
		engine = pickEngine(d.d2hTails)
		if d.d2hTails[engine] > ready {
			ready = d.d2hTails[engine]
		}
	}
	dur := perfmodel.TransferCost(d.spec, dir, n, pinned)
	op := d.enqueue(s, OpCopy, memcpyOpName(dir), ready, dur, fn)
	d.busyCopy += dur
	switch dir {
	case perfmodel.HostToDevice:
		d.h2dTails[engine] = op.End
	case perfmodel.DeviceToHost:
		d.d2hTails[engine] = op.End
	}
	if d.tel != nil {
		// One track per copy engine; same-device copies stay on the stream.
		track := ""
		switch dir {
		case perfmodel.HostToDevice:
			track = d.telH2D[engine]
		case perfmodel.DeviceToHost:
			track = d.telD2H[engine]
		default:
			track = d.streamTrack(s)
		}
		d.tel.Record(telemetry.Span{
			Track: track, Name: op.Name, Class: telemetry.ClassCopy,
			Start: op.Start, End: op.End, Bytes: n,
		})
	}
	return op
}

// EnqueueMemset enqueues a device memset of n bytes (memory-bandwidth
// bound, no copy engine involved).
func (d *Device) EnqueueMemset(s *Stream, n int64, fn func()) *Op {
	ready := d.earliest(s)
	sec := float64(n) / (d.spec.MemBandwidthGBs * 1e9)
	dur := time.Duration(sec * float64(time.Second))
	if dur < time.Microsecond {
		dur = time.Microsecond
	}
	op := d.enqueue(s, OpMemset, "memset", ready, dur, fn)
	d.busyMemset += dur
	d.recordStreamSpan(s, telemetry.ClassGPU, op, n)
	return op
}
