// Package clsim simulates an OpenCL 1.1-flavoured runtime over the GPU
// simulator, realising the paper's second future-work item: "while our
// present work focused on CUDA, the library-based interposition
// monitoring technique is similarly applicable to OpenCL".
//
// The API surface mirrors the OpenCL host API: contexts, in-order command
// queues (each mapping to a device stream), buffers, kernels with
// explicit argument binding, and events with built-in profiling
// timestamps (clGetEventProfilingInfo), which is how OpenCL tools recover
// device-side execution times. internal/ipmcl interposes on the CL
// interface exactly as ipmcuda does on cudart.API.
package clsim

import (
	"fmt"
	"time"

	"ipmgo/internal/des"
	"ipmgo/internal/gpusim"
	"ipmgo/internal/perfmodel"
)

// Handle types, mirroring the opaque cl_* handles.
type (
	// Queue is a cl_command_queue handle.
	Queue int
	// Mem is a cl_mem handle.
	Mem int
	// Event is a cl_event handle.
	Event int
)

// Kernel describes a compiled kernel (cl_kernel): name, cost model and
// optional functional body, with arguments bound via SetKernelArg.
type Kernel struct {
	Name string
	Cost perfmodel.KernelCost
	// Body runs at completion; Args holds the bound arguments by index.
	Body func(dev *gpusim.Device, args map[int]any, global, local []int)

	args map[int]any
}

// CL is the OpenCL host API surface — the interposition seam for
// internal/ipmcl. Method names map to the clXxx entry points.
type CL interface {
	CreateCommandQueue() (Queue, error)
	ReleaseCommandQueue(q Queue) error
	CreateBuffer(size int64) (Mem, error)
	ReleaseMemObject(m Mem) error
	SetKernelArg(k *Kernel, index int, value any) error
	EnqueueNDRangeKernel(q Queue, k *Kernel, global, local []int) (Event, error)
	EnqueueWriteBuffer(q Queue, m Mem, blocking bool, offset int64, data []byte) (Event, error)
	EnqueueReadBuffer(q Queue, m Mem, blocking bool, offset int64, out []byte) (Event, error)
	Finish(q Queue) error
	WaitForEvents(evs ...Event) error
	GetEventProfilingInfo(ev Event) (start, end time.Duration, err error)
}

// Context is the concrete OpenCL context bound to one host process.
type Context struct {
	proc *des.Proc
	dev  *gpusim.Device

	queues    map[Queue]*gpusim.Stream
	nextQueue Queue
	mems      map[Mem]gpusim.DevPtr
	nextMem   Mem
	events    map[Event]gpusim.Ref
	nextEvent Event
	inited    bool
}

var _ CL = (*Context)(nil)

// CreateContext builds an OpenCL context on the device for the host
// process (clCreateContext).
func CreateContext(proc *des.Proc, dev *gpusim.Device) *Context {
	return &Context{
		proc:      proc,
		dev:       dev,
		queues:    make(map[Queue]*gpusim.Stream),
		nextQueue: 1,
		mems:      make(map[Mem]gpusim.DevPtr),
		nextMem:   1,
		events:    make(map[Event]gpusim.Ref),
		nextEvent: 1,
	}
}

// Device returns the underlying simulated device.
func (c *Context) Device() *gpusim.Device { return c.dev }

func (c *Context) ensureInit() {
	if !c.inited {
		c.inited = true
		c.proc.Sleep(c.dev.Spec().ContextInit)
	}
}

func (c *Context) base() { c.proc.Sleep(c.dev.Spec().APICallCost) }

// CreateCommandQueue creates an in-order command queue, backed by a
// device stream.
func (c *Context) CreateCommandQueue() (Queue, error) {
	c.ensureInit()
	c.base()
	q := c.nextQueue
	c.nextQueue++
	c.queues[q] = c.dev.CreateStream()
	return q, nil
}

// ReleaseCommandQueue releases the queue.
func (c *Context) ReleaseCommandQueue(q Queue) error {
	c.base()
	s, ok := c.queues[q]
	if !ok {
		return fmt.Errorf("clsim: invalid queue %d", q)
	}
	delete(c.queues, q)
	return c.dev.DestroyStream(s)
}

func (c *Context) queue(q Queue) (*gpusim.Stream, error) {
	s, ok := c.queues[q]
	if !ok {
		return nil, fmt.Errorf("clsim: invalid queue %d", q)
	}
	return s, nil
}

// CreateBuffer allocates a device buffer (clCreateBuffer).
func (c *Context) CreateBuffer(size int64) (Mem, error) {
	c.ensureInit()
	c.base()
	p, err := c.dev.Alloc(size)
	if err != nil {
		return 0, fmt.Errorf("clsim: %w", err)
	}
	m := c.nextMem
	c.nextMem++
	c.mems[m] = p
	return m, nil
}

// ReleaseMemObject frees the buffer.
func (c *Context) ReleaseMemObject(m Mem) error {
	c.base()
	p, ok := c.mems[m]
	if !ok {
		return fmt.Errorf("clsim: invalid mem object %d", m)
	}
	delete(c.mems, m)
	return c.dev.Free(p)
}

// MemPtr resolves a buffer handle to its device pointer (for kernel
// bodies).
func (c *Context) MemPtr(m Mem) (gpusim.DevPtr, bool) {
	p, ok := c.mems[m]
	return p, ok
}

// SetKernelArg binds an argument (clSetKernelArg). Mem handles are
// resolved to device pointers at bind time.
func (c *Context) SetKernelArg(k *Kernel, index int, value any) error {
	c.base()
	if k == nil {
		return fmt.Errorf("clsim: nil kernel")
	}
	if index < 0 {
		return fmt.Errorf("clsim: negative arg index %d", index)
	}
	if k.args == nil {
		k.args = make(map[int]any)
	}
	if m, ok := value.(Mem); ok {
		p, ok := c.mems[m]
		if !ok {
			return fmt.Errorf("clsim: invalid mem object %d", m)
		}
		k.args[index] = p
		return nil
	}
	k.args[index] = value
	return nil
}

// registerOp files a handle to op under a new event id. Register before
// waiting on op: once it completes the *Op may be reused, its Ref not.
func (c *Context) registerOp(op *gpusim.Op) Event {
	ev := c.nextEvent
	c.nextEvent++
	c.events[ev] = op.Ref()
	return ev
}

// EnqueueNDRangeKernel launches the kernel asynchronously
// (clEnqueueNDRangeKernel). global/local follow OpenCL's NDRange shape
// (up to 3 dimensions).
func (c *Context) EnqueueNDRangeKernel(q Queue, k *Kernel, global, local []int) (Event, error) {
	c.ensureInit()
	s, err := c.queue(q)
	if err != nil {
		return 0, err
	}
	if k == nil {
		return 0, fmt.Errorf("clsim: nil kernel")
	}
	if len(global) == 0 || len(global) > 3 {
		return 0, fmt.Errorf("clsim: NDRange dimension %d", len(global))
	}
	c.proc.Sleep(c.dev.Spec().KernelLaunch)
	var grid, block [3]int
	for i := range grid {
		grid[i], block[i] = 1, 1
		if i < len(global) {
			grid[i] = global[i]
		}
		if i < len(local) && local[i] > 0 {
			block[i] = local[i]
			grid[i] = (grid[i] + local[i] - 1) / local[i]
		}
	}
	args := k.args
	var body func()
	if k.Body != nil {
		g, l := append([]int(nil), global...), append([]int(nil), local...)
		body = func() { k.Body(c.dev, args, g, l) }
	}
	op := c.dev.LaunchKernel(s, k.Name, k.Cost, grid, block, body)
	return c.registerOp(op), nil
}

// EnqueueWriteBuffer copies host data to the device
// (clEnqueueWriteBuffer); blocking selects synchronous semantics.
func (c *Context) EnqueueWriteBuffer(q Queue, m Mem, blocking bool, offset int64, data []byte) (Event, error) {
	c.ensureInit()
	c.base()
	s, err := c.queue(q)
	if err != nil {
		return 0, err
	}
	p, ok := c.mems[m]
	if !ok {
		return 0, fmt.Errorf("clsim: invalid mem object %d", m)
	}
	n := int64(len(data))
	dst := p.Offset(offset)
	var payload func()
	if data != nil {
		payload = func() {
			if b, err := c.dev.Bytes(dst, n); err == nil {
				copy(b, data)
			}
		}
	}
	op := c.dev.EnqueueCopy(s, perfmodel.HostToDevice, n, false, payload)
	ev := c.registerOp(op)
	if blocking {
		c.proc.Wait(op.Done())
	}
	return ev, nil
}

// EnqueueReadBuffer copies device data to the host (clEnqueueReadBuffer).
func (c *Context) EnqueueReadBuffer(q Queue, m Mem, blocking bool, offset int64, out []byte) (Event, error) {
	c.ensureInit()
	c.base()
	s, err := c.queue(q)
	if err != nil {
		return 0, err
	}
	p, ok := c.mems[m]
	if !ok {
		return 0, fmt.Errorf("clsim: invalid mem object %d", m)
	}
	n := int64(len(out))
	src := p.Offset(offset)
	var payload func()
	if out != nil {
		payload = func() {
			if b, err := c.dev.Bytes(src, n); err == nil {
				copy(out, b)
			}
		}
	}
	op := c.dev.EnqueueCopy(s, perfmodel.DeviceToHost, n, false, payload)
	ev := c.registerOp(op)
	if blocking {
		c.proc.Wait(op.Done())
	}
	return ev, nil
}

// Finish blocks until all commands in the queue have completed
// (clFinish).
func (c *Context) Finish(q Queue) error {
	c.base()
	s, err := c.queue(q)
	if err != nil {
		return err
	}
	if sig := s.Last().Done(); sig != nil {
		c.proc.Wait(sig)
	}
	return nil
}

// WaitForEvents blocks until every event has completed
// (clWaitForEvents).
func (c *Context) WaitForEvents(evs ...Event) error {
	c.base()
	for _, ev := range evs {
		ref, ok := c.events[ev]
		if !ok {
			return fmt.Errorf("clsim: invalid event %d", ev)
		}
		if sig := ref.Done(); sig != nil {
			c.proc.Wait(sig)
		}
	}
	return nil
}

// GetEventProfilingInfo returns the device-timeline start and end of the
// command (CL_PROFILING_COMMAND_START/END). The command must have
// completed.
func (c *Context) GetEventProfilingInfo(ev Event) (start, end time.Duration, err error) {
	c.base()
	ref, ok := c.events[ev]
	if !ok {
		return 0, 0, fmt.Errorf("clsim: invalid event %d", ev)
	}
	if !ref.Complete() {
		return 0, 0, fmt.Errorf("clsim: event %d not complete (CL_PROFILING_INFO_NOT_AVAILABLE)", ev)
	}
	return ref.Start, ref.End, nil
}
