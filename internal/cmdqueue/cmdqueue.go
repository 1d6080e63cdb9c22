// Package cmdqueue models the driver's per-context command submission
// queue — the layer between the CUDA runtime API (internal/cudart) and
// the device (internal/gpusim) that the paper's API-level timing cannot
// see. Every kernel launch, memory copy, memset and event record the
// runtime issues is a command in its context's queue; the "driver"
// submits a batch to the device when the queue reaches a depth
// threshold, when a virtual-time flush timer expires, or when the host
// hits a synchronisation point. Unbatched submission is the same queue
// at depth 1 with no timer: each command reaches the device the moment
// it is pushed, without being buffered.
//
// The observable consequence is submit stall: the virtual time a
// command spends between its API call (enqueue) and its hand-off to the
// device (flush). Each flush reports the per-command stall to an
// OnSubmit hook (the cluster wires it into the IPM hash table), records
// a submit span plus a queue-depth counter track when telemetry is
// attached, and bumps the per-queue Prometheus cells.
//
// The queue has no failure path of its own. A flush on a lost device
// hands its batch over like any other; the device accepts the commands
// and never completes them, so a host that waits on one hangs, as it
// would on the real hardware, until the cluster's watchdog kills it.
//
// Determinism: a queue is owned by one DES engine and mutated only from
// engine context (host process calls and the flush-timer event), so for
// a fixed configuration every flush decision is a pure function of
// virtual time and call order — simulations stay byte-identical at any
// host parallelism. Changing FlushDepth/FlushInterval legitimately
// changes the schedule (batching is a physical effect), but each
// setting is itself deterministic.
//
// The enqueue hot path appends a value-type Command to a reusable slice
// (or, at depth 1, hands it straight to the device): zero heap
// allocations per operation in steady state (pinned by TestEnqueueAllocs
// and BenchmarkQueueSubmit).
package cmdqueue

import (
	"time"

	"ipmgo/internal/des"
	"ipmgo/internal/gpusim"
	"ipmgo/internal/perfmodel"
	"ipmgo/internal/telemetry"
)

// DefaultFlushDepth and DefaultFlushInterval are the batching defaults:
// small enough that an unsuspecting workload sees microsecond-scale
// stalls, large enough that launch-heavy loops batch visibly.
const (
	DefaultFlushDepth    = 8
	DefaultFlushInterval = 20 * time.Microsecond
)

// Options configures one submission queue.
type Options struct {
	// FlushDepth submits the batch when this many commands are queued
	// (default DefaultFlushDepth; 1 disables batching).
	FlushDepth int
	// FlushInterval submits whatever is queued this long (virtual time)
	// after the first command entered an empty queue (default
	// DefaultFlushInterval; <0 disables the timer).
	FlushInterval time.Duration
	// Name labels the queue's telemetry track and metric series, by
	// convention "ctx<rank>/q0".
	Name string
	// Telemetry, when non-nil, receives one ClassQueue submit span per
	// flush and a queue-depth counter point per enqueue/flush.
	Telemetry *telemetry.Recorder
	// OnSubmit, when non-nil, is invoked at flush time for every
	// submitted command with its call-site name, operand bytes, and
	// enqueue→flush stall. The cluster adapts this onto
	// ipm.Monitor.ObserveNRef so stall lands on the same hash-table row
	// as the call's host timing.
	OnSubmit func(site string, bytes int64, stall time.Duration)
	// Depth and Flushes are optional per-queue metric cells
	// (ipm_queue_depth gauge, ipm_queue_flushes_total counter).
	Depth   *telemetry.VecCell
	Flushes *telemetry.VecCell
	// Stall, when non-nil, observes each submitted command's stall in
	// nanoseconds.
	Stall *telemetry.Histogram
}

func (o Options) withDefaults() Options {
	if o.FlushDepth == 0 {
		o.FlushDepth = DefaultFlushDepth
	}
	if o.FlushDepth < 1 {
		o.FlushDepth = 1
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = DefaultFlushInterval
	}
	if o.Name == "" {
		o.Name = "ctx0/q0"
	}
	return o
}

// cmdKind discriminates the Command union.
type cmdKind uint8

const (
	cmdKernel cmdKind = iota
	cmdCopy
	cmdMemset
	cmdEvent
)

// Command is one buffered device operation. Commands are stored by value
// in the queue's reusable slice; the union fields overlap by kind.
type Command struct {
	kind   cmdKind
	site   string        // API call-site name for stall attribution
	enq    time.Duration // virtual enqueue time
	bytes  int64
	stream *gpusim.Stream

	// kernel
	name        string
	cost        perfmodel.KernelCost
	grid, block [3]int

	// copy
	dir    perfmodel.TransferDir
	pinned bool

	// event record
	ev *gpusim.DevEvent

	payload func()
}

// Queue is one per-context submission queue. Not safe for concurrent
// use; like the device it fronts, it is driven from DES context only.
type Queue struct {
	eng  *des.Engine
	dev  *gpusim.Device
	opts Options

	cmds  []Command // allocated when the first command is buffered
	timer des.Event // pending flush timer, zero when none
	armed bool

	flushes  uint64
	submits  uint64
	maxDepth int
}

// New creates a queue submitting to dev. The engine is taken from the
// device; opts zero values select the defaults.
func New(dev *gpusim.Device, opts Options) *Queue {
	return &Queue{eng: dev.Engine(), dev: dev, opts: opts.withDefaults()}
}

// Name returns the queue label.
func (q *Queue) Name() string { return q.opts.Name }

// Depth returns the number of commands currently buffered.
func (q *Queue) Depth() int { return len(q.cmds) }

// MaxDepth returns the deepest the queue has been.
func (q *Queue) MaxDepth() int { return q.maxDepth }

// Flushes returns how many non-empty batches have been submitted.
func (q *Queue) Flushes() uint64 { return q.flushes }

// Submits returns how many commands have been submitted to the device.
func (q *Queue) Submits() uint64 { return q.submits }

// push applies the flush heuristics to one command. The caller has
// filled c except for the enqueue timestamp.
func (q *Queue) push(c *Command) {
	c.enq = q.eng.Now()
	n := len(q.cmds) + 1
	if n > q.maxDepth {
		q.maxDepth = n
	}
	if cell := q.opts.Depth; cell != nil {
		cell.Set(float64(n))
	}
	if rec := q.opts.Telemetry; rec != nil {
		rec.RecordCounter(telemetry.CounterPoint{
			Track: q.opts.Name, Name: "depth", Time: c.enq, Value: float64(n),
		})
	}
	if q.opts.FlushDepth == 1 {
		// At depth 1 every push fills an empty batch: submit it as is.
		q.submit(c, c.enq)
		q.flushed(c.enq, c.enq, 1)
		return
	}
	if q.cmds == nil {
		// Sized for a full batch, up to 64 commands: a timer-only queue
		// (a huge FlushDepth) grows by append instead of reserving it.
		q.cmds = make([]Command, 0, min(q.opts.FlushDepth, 64)+4)
	}
	q.cmds = append(q.cmds, *c)
	if n >= q.opts.FlushDepth {
		q.Flush()
	} else if n == 1 && q.opts.FlushInterval > 0 {
		q.timer = q.eng.ScheduleRunner(c.enq+q.opts.FlushInterval, q)
		q.armed = true
	}
}

// Run fires the flush timer; it implements des.Runner so arming the
// timer allocates nothing per enqueue.
func (q *Queue) Run() {
	q.armed = false
	q.Flush()
}

// Flush submits every buffered command to the device in enqueue order.
func (q *Queue) Flush() {
	if q.armed {
		q.timer.Cancel()
		q.armed = false
	}
	if len(q.cmds) == 0 {
		return
	}
	now := q.eng.Now()
	for i := range q.cmds {
		q.submit(&q.cmds[i], now)
	}
	q.flushed(q.cmds[0].enq, now, len(q.cmds))
	q.cmds = q.cmds[:0]
}

// submit hands one command to the device at virtual time now and
// reports its stall. Flush and the depth-1 push both submit through it.
func (q *Queue) submit(c *Command, now time.Duration) {
	switch c.kind {
	case cmdKernel:
		q.dev.LaunchKernel(c.stream, c.name, c.cost, c.grid, c.block, c.payload)
	case cmdCopy:
		q.dev.EnqueueCopy(c.stream, c.dir, c.bytes, c.pinned, c.payload)
	case cmdMemset:
		q.dev.EnqueueMemset(c.stream, c.bytes, c.payload)
	case cmdEvent:
		c.ev.Record(c.stream)
	}
	stall := now - c.enq
	if fn := q.opts.OnSubmit; fn != nil {
		fn(c.site, c.bytes, stall)
	}
	if h := q.opts.Stall; h != nil {
		h.Observe(float64(stall.Nanoseconds()))
	}
	// Clear pointer fields so the reused slice does not retain
	// payloads/streams past the batch.
	c.payload = nil
	c.stream = nil
	c.ev = nil
}

// flushed records one submitted batch of n commands, the oldest of them
// enqueued at oldest.
func (q *Queue) flushed(oldest, now time.Duration, n int) {
	q.flushes++
	q.submits += uint64(n)
	if cell := q.opts.Depth; cell != nil {
		cell.Set(0)
	}
	if cell := q.opts.Flushes; cell != nil {
		cell.Add(1)
	}
	if rec := q.opts.Telemetry; rec != nil {
		rec.Record(telemetry.Span{
			Track: q.opts.Name, Name: "submit", Class: telemetry.ClassQueue,
			Start: oldest, End: now, Bytes: int64(n),
		})
		rec.RecordCounter(telemetry.CounterPoint{
			Track: q.opts.Name, Name: "depth", Time: now, Value: 0,
		})
	}
}

// EnqueueKernel buffers a kernel launch. site is the API call-site name
// the stall is attributed to ("cudaLaunch").
func (q *Queue) EnqueueKernel(s *gpusim.Stream, site, name string, cost perfmodel.KernelCost, grid, block [3]int, body func()) {
	q.push(&Command{
		kind: cmdKernel, site: site, stream: s,
		name: name, cost: cost, grid: grid, block: block, payload: body,
	})
}

// EnqueueCopy buffers a memory copy of n bytes.
func (q *Queue) EnqueueCopy(s *gpusim.Stream, site string, dir perfmodel.TransferDir, n int64, pinned bool, payload func()) {
	q.push(&Command{
		kind: cmdCopy, site: site, stream: s,
		dir: dir, bytes: n, pinned: pinned, payload: payload,
	})
}

// EnqueueMemset buffers a device memset of n bytes.
func (q *Queue) EnqueueMemset(s *gpusim.Stream, site string, n int64, payload func()) {
	q.push(&Command{kind: cmdMemset, site: site, stream: s, bytes: n, payload: payload})
}

// EnqueueEventRecord buffers an event record. The event reports
// unrecorded (Query false, Done nil) until the batch is flushed — the
// submission latency a host-side poller actually observes.
func (q *Queue) EnqueueEventRecord(s *gpusim.Stream, site string, ev *gpusim.DevEvent) {
	q.push(&Command{kind: cmdEvent, site: site, stream: s, ev: ev})
}
