package cudart

import (
	"time"

	"ipmgo/internal/cmdqueue"
	"ipmgo/internal/des"
	"ipmgo/internal/gpusim"
	"ipmgo/internal/perfmodel"
)

// Options tunes host-side costs of the runtime that are not part of the
// GPU specification.
type Options struct {
	// LaunchBlocking makes every Launch wait for kernel completion, like
	// setting CUDA_LAUNCH_BLOCKING=1.
	LaunchBlocking bool
	// DeviceCount is the device count reported by GetDeviceCount
	// (default 1).
	DeviceCount int
	// DeviceQueryCost is the per-call host cost of GetDeviceCount beyond
	// the base API cost (a driver round trip; default 2us).
	DeviceQueryCost time.Duration
	// MallocCost is the host-side cost of cudaMalloc beyond context
	// initialisation (default 10us).
	MallocCost time.Duration
	// HostMemcpyGBs is the host-to-host copy bandwidth (default 8 GB/s).
	HostMemcpyGBs float64
	// Inject, when non-nil, is consulted at the top of every
	// device-touching API call with the cudaXxx symbol name and the
	// current virtual time. A non-nil return becomes the call's (sticky)
	// error and the real operation is skipped — the seam
	// internal/faultsim hooks into. The hook must be deterministic in
	// (call, call order, virtual time); it must never read wall clock.
	Inject func(call string, now time.Duration) error
	// Queue configures the context's driver command queue
	// (internal/cmdqueue), through which every kernel launch, memcpy,
	// memset and event record reaches the device. Batched commands reach
	// it at flush time (size/timer/sync-point heuristics), making
	// launch→submit latency part of the simulated schedule and observable
	// as submit stall. Nil submits each command at once, unobserved: a
	// queue at depth 1 with no timer, hook, telemetry or metric cells.
	Queue *cmdqueue.Options
}

func (o Options) withDefaults() Options {
	if o.DeviceCount == 0 {
		o.DeviceCount = 1
	}
	if o.DeviceQueryCost == 0 {
		o.DeviceQueryCost = 2 * time.Microsecond
	}
	if o.MallocCost == 0 {
		o.MallocCost = 10 * time.Microsecond
	}
	if o.HostMemcpyGBs == 0 {
		o.HostMemcpyGBs = 8
	}
	return o
}

// launchConfig is one entry of the execution-configuration stack pushed by
// ConfigureCall.
type launchConfig struct {
	grid, block Dim3
	sharedMem   int64
	stream      Stream
	args        KernelArgs
}

// Runtime is the concrete CUDA runtime bound to one host process (one CUDA
// context). Several Runtimes may share one Device, modelling multiple MPI
// tasks sharing a node's GPU.
type Runtime struct {
	proc *des.Proc
	dev  *gpusim.Device
	opts Options

	inited     bool
	streams    map[Stream]*gpusim.Stream
	nextStream Stream
	events     map[Event]*gpusim.DevEvent
	nextEvent  Event
	pending    []launchConfig
	symbols    map[string]DevPtr
	lastErr    error
	queue      *cmdqueue.Queue
}

var _ API = (*Runtime)(nil)

// NewRuntime creates a CUDA context for the host process on the device.
func NewRuntime(proc *des.Proc, dev *gpusim.Device, opts Options) *Runtime {
	r := &Runtime{
		proc:       proc,
		dev:        dev,
		opts:       opts.withDefaults(),
		streams:    make(map[Stream]*gpusim.Stream),
		nextStream: 1,
		events:     make(map[Event]*gpusim.DevEvent),
		nextEvent:  1,
		symbols:    make(map[string]DevPtr),
	}
	qopts := cmdqueue.Options{FlushDepth: 1, FlushInterval: -1}
	if r.opts.Queue != nil {
		qopts = *r.opts.Queue
	}
	r.queue = cmdqueue.New(dev, qopts)
	return r
}

// wait blocks the host until the op behind ref has completed.
func (r *Runtime) wait(ref gpusim.Ref) {
	if sig := ref.Done(); sig != nil {
		r.proc.Wait(sig)
	}
}

// Proc returns the host process the runtime is bound to.
func (r *Runtime) Proc() *des.Proc { return r.proc }

// Device returns the underlying simulated device.
func (r *Runtime) Device() *gpusim.Device { return r.dev }

// ensureInit charges the one-time CUDA context creation cost. The paper's
// Fig. 4 shows it surfacing inside the first API call (cudaMalloc, 2.43 s).
func (r *Runtime) ensureInit() {
	if r.inited {
		return
	}
	r.inited = true
	r.proc.Sleep(r.dev.Spec().ContextInit)
}

func (r *Runtime) base() { r.proc.Sleep(r.dev.Spec().APICallCost) }

// fail records err as the sticky last error and returns it.
func (r *Runtime) fail(err error) error {
	r.lastErr = err
	return err
}

// inject consults the fault hook for a call; an injected error stands in
// for the real operation's failure and is sticky like any other.
func (r *Runtime) inject(call string) error {
	if r.opts.Inject == nil {
		return nil
	}
	if err := r.opts.Inject(call, r.proc.Now()); err != nil {
		return r.fail(err)
	}
	return nil
}

func (r *Runtime) stream(s Stream) (*gpusim.Stream, error) {
	if s == 0 {
		return r.dev.DefaultStream(), nil
	}
	gs, ok := r.streams[s]
	if !ok {
		return nil, errCode(CodeInvalidResourceHandle, "unknown stream %d", s)
	}
	return gs, nil
}

// Malloc allocates device memory. The first call pays context
// initialisation.
func (r *Runtime) Malloc(n int64) (DevPtr, error) {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaMalloc"); err != nil {
		return DevPtr{}, err
	}
	r.proc.Sleep(r.opts.MallocCost)
	p, err := r.dev.Alloc(n)
	if err != nil {
		return DevPtr{}, r.fail(errCode(CodeMemoryAllocation, "%v", err))
	}
	return p, nil
}

// Free releases device memory.
func (r *Runtime) Free(p DevPtr) error {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaFree"); err != nil {
		return err
	}
	if err := r.dev.Free(p); err != nil {
		return r.fail(errCode(CodeInvalidDevicePointer, "%v", err))
	}
	return nil
}

// HostAlloc allocates page-locked host memory (cudaHostAlloc /
// cudaMallocHost). Pinning costs time proportional to the size.
func (r *Runtime) HostAlloc(n int64) ([]byte, error) {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaHostAlloc"); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, r.fail(errCode(CodeInvalidValue, "negative size %d", n))
	}
	// Pinning pages: ~2 GB/s.
	r.proc.Sleep(time.Duration(float64(n) / 2e9 * float64(time.Second)))
	return make([]byte, n), nil
}

// memcpyPayload returns the functional data movement for a transfer, or
// nil when either side carries no backing storage.
func (r *Runtime) memcpyPayload(dst, src Ptr, n int64, kind MemcpyKind) func() {
	switch kind {
	case MemcpyHostToDevice:
		if src.Host == nil {
			return nil
		}
		return func() {
			if b, err := r.dev.Bytes(dst.Dev, n); err == nil {
				copy(b, src.Host[:n])
			}
		}
	case MemcpyDeviceToHost:
		if dst.Host == nil {
			return nil
		}
		return func() {
			if b, err := r.dev.Bytes(src.Dev, n); err == nil {
				copy(dst.Host[:n], b)
			}
		}
	case MemcpyDeviceToDevice:
		return func() {
			db, derr := r.dev.Bytes(dst.Dev, n)
			sb, serr := r.dev.Bytes(src.Dev, n)
			if derr == nil && serr == nil {
				copy(db, sb)
			}
		}
	}
	return nil
}

func validateKind(dst, src Ptr, kind MemcpyKind) error {
	switch kind {
	case MemcpyHostToHost:
		if dst.IsDev || src.IsDev {
			return errCode(CodeInvalidMemcpyDirection, "H2H with device pointer")
		}
	case MemcpyHostToDevice:
		if !dst.IsDev || src.IsDev {
			return errCode(CodeInvalidMemcpyDirection, "H2D expects device dst, host src")
		}
	case MemcpyDeviceToHost:
		if dst.IsDev || !src.IsDev {
			return errCode(CodeInvalidMemcpyDirection, "D2H expects host dst, device src")
		}
	case MemcpyDeviceToDevice:
		if !dst.IsDev || !src.IsDev {
			return errCode(CodeInvalidMemcpyDirection, "D2D expects device pointers")
		}
	default:
		return errCode(CodeInvalidMemcpyDirection, "unknown kind %d", kind)
	}
	return nil
}

// Memcpy is the synchronous copy. Per the CUDA 3.x semantics the paper
// exploits, it is issued to the NULL stream and blocks the host until the
// transfer — and, via NULL-stream ordering, all previously submitted
// device work — has completed. This is the implicit host blocking that
// IPM's @CUDA_HOST_IDLE metric exposes.
func (r *Runtime) Memcpy(dst, src Ptr, n int64, kind MemcpyKind) error {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaMemcpy"); err != nil {
		return err
	}
	if err := validateKind(dst, src, kind); err != nil {
		return r.fail(err)
	}
	if kind == MemcpyHostToHost {
		r.proc.Sleep(time.Duration(float64(n) / (r.opts.HostMemcpyGBs * 1e9) * float64(time.Second)))
		if dst.Host != nil && src.Host != nil {
			copy(dst.Host[:n], src.Host[:n])
		}
		return nil
	}
	dir := transferDir(kind)
	pinned := src.Pinned || dst.Pinned
	// Synchronous copy: enqueue, force the batch out (a sync point
	// flushes the context's queue), then wait for the copy — the last op
	// the flush placed on the NULL stream.
	r.queue.EnqueueCopy(r.dev.DefaultStream(), memcpySites[kind], dir, n, pinned, r.memcpyPayload(dst, src, n, kind))
	r.queue.Flush()
	r.wait(r.dev.DefaultStream().Last())
	return nil
}

// memcpySites / memcpyAsyncSites pre-intern the direction-tagged call
// sites stall is attributed to. The strings must stay byte-identical to
// the signature names ipmcuda records ("cudaMemcpy(H2D)", ...), so the
// queue's OnSubmit hook folds stall into the same hash-table row as the
// call's host timing.
var memcpySites = [...]string{
	MemcpyHostToHost:     "cudaMemcpy(H2H)",
	MemcpyHostToDevice:   "cudaMemcpy(H2D)",
	MemcpyDeviceToHost:   "cudaMemcpy(D2H)",
	MemcpyDeviceToDevice: "cudaMemcpy(D2D)",
}

var memcpyAsyncSites = [...]string{
	MemcpyHostToHost:     "cudaMemcpyAsync(H2H)",
	MemcpyHostToDevice:   "cudaMemcpyAsync(H2D)",
	MemcpyDeviceToHost:   "cudaMemcpyAsync(D2H)",
	MemcpyDeviceToDevice: "cudaMemcpyAsync(D2D)",
}

func transferDir(kind MemcpyKind) perfmodel.TransferDir {
	switch kind {
	case MemcpyHostToDevice:
		return perfmodel.HostToDevice
	case MemcpyDeviceToHost:
		return perfmodel.DeviceToHost
	default:
		return perfmodel.DeviceToDevice
	}
}

// MemcpyAsync enqueues the copy on the given stream and returns
// immediately. (With pageable memory the real runtime may stage the copy;
// we model all async copies as truly asynchronous and note the
// simplification in DESIGN.md.)
func (r *Runtime) MemcpyAsync(dst, src Ptr, n int64, kind MemcpyKind, s Stream) error {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaMemcpyAsync"); err != nil {
		return err
	}
	if err := validateKind(dst, src, kind); err != nil {
		return r.fail(err)
	}
	gs, err := r.stream(s)
	if err != nil {
		return r.fail(err)
	}
	if kind == MemcpyHostToHost {
		if dst.Host != nil && src.Host != nil {
			copy(dst.Host[:n], src.Host[:n])
		}
		return nil
	}
	pinned := src.Pinned || dst.Pinned
	r.queue.EnqueueCopy(gs, memcpyAsyncSites[kind], transferDir(kind), n, pinned, r.memcpyPayload(dst, src, n, kind))
	return nil
}

// MemcpyToSymbol copies host data to a named device symbol (module-scope
// __device__/__constant__ variable), allocating the symbol's storage on
// first use. Like Memcpy it is synchronous.
func (r *Runtime) MemcpyToSymbol(symbol string, src []byte) error {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaMemcpyToSymbol"); err != nil {
		return err
	}
	if symbol == "" {
		return r.fail(errCode(CodeInvalidSymbol, "empty symbol name"))
	}
	n := int64(len(src))
	p, ok := r.symbols[symbol]
	if !ok {
		var err error
		p, err = r.dev.Alloc(n)
		if err != nil {
			return r.fail(errCode(CodeMemoryAllocation, "symbol %s: %v", symbol, err))
		}
		r.symbols[symbol] = p
	}
	payload := func() {
		if b, err := r.dev.Bytes(p, n); err == nil {
			copy(b, src)
		}
	}
	r.queue.EnqueueCopy(r.dev.DefaultStream(), "cudaMemcpyToSymbol", perfmodel.HostToDevice, n, false, payload)
	r.queue.Flush()
	r.wait(r.dev.DefaultStream().Last())
	return nil
}

// SymbolPtr returns the device pointer backing a symbol, for tests and
// kernel bodies.
func (r *Runtime) SymbolPtr(symbol string) (DevPtr, bool) {
	p, ok := r.symbols[symbol]
	return p, ok
}

// Memset fills device memory. Notably it does NOT block the host: the
// paper's microbenchmark found cudaMemset to be the one synchronous-looking
// memory operation without implicit host blocking, and IPM excludes it
// from host-idle accounting.
func (r *Runtime) Memset(p DevPtr, value byte, n int64) error {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaMemset"); err != nil {
		return err
	}
	payload := func() {
		if b, err := r.dev.Bytes(p, n); err == nil {
			for i := range b {
				b[i] = value
			}
		}
	}
	r.queue.EnqueueMemset(r.dev.DefaultStream(), "cudaMemset", n, payload)
	return nil
}

// MemGetInfo reports free and total device memory.
func (r *Runtime) MemGetInfo() (free, total int64, err error) {
	r.ensureInit()
	r.base()
	if err = r.inject("cudaMemGetInfo"); err != nil {
		return 0, 0, err
	}
	free, total = r.dev.MemInfo()
	return free, total, nil
}

// ConfigureCall pushes an execution configuration for a subsequent Launch.
func (r *Runtime) ConfigureCall(grid, block Dim3, sharedMem int64, s Stream) error {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaConfigureCall"); err != nil {
		return err
	}
	if _, err := r.stream(s); err != nil {
		return r.fail(err)
	}
	// A popped configuration leaves its args backing array in the slot
	// past len; reuse it unless Launch handed it to a kernel body.
	var args KernelArgs
	if n := len(r.pending); n < cap(r.pending) {
		args = r.pending[:n+1][n].args[:0]
	}
	r.pending = append(r.pending, launchConfig{grid: grid, block: block, sharedMem: sharedMem, stream: s, args: args})
	return nil
}

// SetupArgument appends a kernel argument to the pending configuration.
func (r *Runtime) SetupArgument(arg any, size, offset int64) error {
	r.base()
	if len(r.pending) == 0 {
		return r.fail(errCode(CodeInvalidConfiguration, "cudaSetupArgument without cudaConfigureCall"))
	}
	cfg := &r.pending[len(r.pending)-1]
	cfg.args = append(cfg.args, arg)
	return nil
}

// Launch submits the kernel with the most recent configuration. Launches
// are asynchronous unless Options.LaunchBlocking is set.
func (r *Runtime) Launch(fn *Func) error {
	r.base()
	if err := r.inject("cudaLaunch"); err != nil {
		// The configuration is consumed even when the launch fails, as on
		// real hardware: the next Launch needs its own ConfigureCall.
		if len(r.pending) > 0 {
			r.pending = r.pending[:len(r.pending)-1]
		}
		return err
	}
	if fn == nil {
		return r.fail(errCode(CodeLaunchFailure, "nil kernel"))
	}
	if len(r.pending) == 0 {
		return r.fail(errCode(CodeInvalidConfiguration, "cudaLaunch without cudaConfigureCall"))
	}
	n := len(r.pending) - 1
	cfg := r.pending[n]
	r.pending = r.pending[:n]
	if fn.Body != nil {
		// The body reads its args at completion time, long after the next
		// ConfigureCall would have reused them: hand the array over.
		r.pending[:n+1][n].args = nil
	}
	gs, err := r.stream(cfg.stream)
	if err != nil {
		return r.fail(err)
	}
	r.proc.Sleep(r.dev.Spec().KernelLaunch)
	cost := fn.cost(cfg.grid, cfg.block, cfg.args)
	var body func()
	if fn.Body != nil {
		ctx := LaunchContext{Dev: r.dev, Grid: cfg.grid, Block: cfg.block, Args: cfg.args}
		body = func() { fn.Body(ctx) }
	}
	r.queue.EnqueueKernel(gs, "cudaLaunch", fn.Name, cost, cfg.grid.norm(), cfg.block.norm(), body)
	if r.opts.LaunchBlocking {
		r.queue.Flush()
		r.wait(gs.Last())
	}
	return nil
}

// LaunchKernel is the convenience form combining
// ConfigureCall+SetupArgument+Launch, analogous to the <<<...>>> syntax
// expansion.
func (r *Runtime) LaunchKernel(fn *Func, grid, block Dim3, s Stream, args ...any) error {
	if err := r.ConfigureCall(grid, block, 0, s); err != nil {
		return err
	}
	for i, a := range args {
		if err := r.SetupArgument(a, 8, int64(8*i)); err != nil {
			return err
		}
	}
	return r.Launch(fn)
}

// StreamCreate creates an asynchronous stream.
func (r *Runtime) StreamCreate() (Stream, error) {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaStreamCreate"); err != nil {
		return 0, err
	}
	gs := r.dev.CreateStream()
	h := r.nextStream
	r.nextStream++
	r.streams[h] = gs
	return h, nil
}

// StreamDestroy destroys a stream created by StreamCreate.
func (r *Runtime) StreamDestroy(s Stream) error {
	r.base()
	gs, ok := r.streams[s]
	if !ok {
		return r.fail(errCode(CodeInvalidResourceHandle, "unknown stream %d", s))
	}
	// Queued commands may still reference the stream; submit them first.
	r.queue.Flush()
	delete(r.streams, s)
	if err := r.dev.DestroyStream(gs); err != nil {
		return r.fail(errCode(CodeInvalidResourceHandle, "%v", err))
	}
	return nil
}

// StreamSynchronize blocks the host until all work submitted to the
// stream has completed. For the NULL stream this waits for the whole
// device (legacy synchronisation behaviour).
func (r *Runtime) StreamSynchronize(s Stream) error {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaStreamSynchronize"); err != nil {
		return err
	}
	r.queue.Flush()
	last := r.dev.LastOp()
	if s != 0 {
		gs, err := r.stream(s)
		if err != nil {
			return r.fail(err)
		}
		last = gs.Last()
	}
	r.wait(last)
	return nil
}

// EventCreate creates an event.
func (r *Runtime) EventCreate() (Event, error) {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaEventCreate"); err != nil {
		return 0, err
	}
	h := r.nextEvent
	r.nextEvent++
	r.events[h] = r.dev.NewEvent()
	return h, nil
}

func (r *Runtime) event(ev Event) (*gpusim.DevEvent, error) {
	de, ok := r.events[ev]
	if !ok {
		return nil, errCode(CodeInvalidResourceHandle, "unknown event %d", ev)
	}
	return de, nil
}

// EventRecord inserts the event into the stream.
func (r *Runtime) EventRecord(ev Event, s Stream) error {
	r.base()
	if err := r.inject("cudaEventRecord"); err != nil {
		return err
	}
	de, err := r.event(ev)
	if err != nil {
		return r.fail(err)
	}
	gs, err := r.stream(s)
	if err != nil {
		return r.fail(err)
	}
	r.queue.EnqueueEventRecord(gs, "cudaEventRecord", de)
	return nil
}

// EventQuery returns nil when the event has completed on the device and
// ErrNotReady otherwise.
func (r *Runtime) EventQuery(ev Event) error {
	r.base()
	de, err := r.event(ev)
	if err != nil {
		return r.fail(err)
	}
	if !de.Query() {
		return ErrNotReady // polling; not recorded as sticky error
	}
	return nil
}

// EventSynchronize blocks until the event completes.
func (r *Runtime) EventSynchronize(ev Event) error {
	r.base()
	if err := r.inject("cudaEventSynchronize"); err != nil {
		return err
	}
	de, err := r.event(ev)
	if err != nil {
		return r.fail(err)
	}
	// The record may still be queued; flush so Done() sees the real op.
	r.queue.Flush()
	if sig := de.Done(); sig != nil {
		r.proc.Wait(sig)
	}
	return nil
}

// EventElapsedTime returns the device-timeline time between two completed
// events.
func (r *Runtime) EventElapsedTime(start, stop Event) (time.Duration, error) {
	r.base()
	a, err := r.event(start)
	if err != nil {
		return 0, r.fail(err)
	}
	b, err := r.event(stop)
	if err != nil {
		return 0, r.fail(err)
	}
	d, err := a.Elapsed(b)
	if err != nil {
		return 0, ErrNotReady
	}
	return d, nil
}

// EventDestroy destroys an event.
func (r *Runtime) EventDestroy(ev Event) error {
	r.base()
	if _, err := r.event(ev); err != nil {
		return r.fail(err)
	}
	delete(r.events, ev)
	return nil
}

// ThreadSynchronize blocks the host until the device is idle
// (cudaThreadSynchronize; deviceSynchronize in later CUDA versions).
func (r *Runtime) ThreadSynchronize() error {
	r.ensureInit()
	r.base()
	if err := r.inject("cudaThreadSynchronize"); err != nil {
		return err
	}
	r.queue.Flush()
	r.wait(r.dev.LastOp())
	return nil
}

// GetDeviceCount reports the number of CUDA devices. Like the real call it
// initialises the runtime, which is why it shows up with substantial time
// in the paper's Amber profile.
func (r *Runtime) GetDeviceCount() (int, error) {
	r.ensureInit()
	r.base()
	r.proc.Sleep(r.opts.DeviceQueryCost)
	return r.opts.DeviceCount, nil
}

// GetDeviceProperties reports the properties of the device.
func (r *Runtime) GetDeviceProperties() (DeviceProp, error) {
	r.ensureInit()
	r.base()
	sp := r.dev.Spec()
	return DeviceProp{
		Name:                 sp.Name,
		TotalGlobalMem:       sp.MemBytes,
		MultiProcessorCount:  sp.MultiProcessors,
		ClockRateKHz:         int(sp.ClockGHz * 1e6),
		ConcurrentKernels:    sp.MaxConcurrent,
		MemoryBandwidthGBs:   sp.MemBandwidthGBs,
		PeakDPGFlops:         sp.PeakDPGFlops,
		PeakSPGFlops:         sp.PeakSPGFlops,
		ECCEnabled:           true,
		ComputeCapabilityMaj: 2,
		ComputeCapabilityMin: 0,
	}, nil
}

// GetDevice returns the current device ordinal.
func (r *Runtime) GetDevice() (int, error) {
	r.base()
	return 0, nil
}

// SetDevice selects the current device. Only ordinal 0 exists per node in
// the Dirac model.
func (r *Runtime) SetDevice(dev int) error {
	r.base()
	if dev < 0 || dev >= r.opts.DeviceCount {
		return r.fail(errCode(CodeInvalidValue, "no device %d", dev))
	}
	return nil
}

// GetLastError returns and clears the sticky error from the last failing
// runtime call, mirroring cudaGetLastError.
func (r *Runtime) GetLastError() error {
	r.base()
	err := r.lastErr
	r.lastErr = nil
	return err
}

// PeekAtLastError returns the sticky error without clearing it, mirroring
// cudaPeekAtLastError — the one-bit semantic difference from GetLastError
// that error-checking macros rely on.
func (r *Runtime) PeekAtLastError() error {
	r.base()
	return r.lastErr
}
