// Package ipmcuda implements IPM's CUDA monitoring layer (paper Section
// III): a decorator around the cudart.API interface that
//
//   - times every runtime API call host-side and records it in the
//     performance hash table (Section III-A, Fig. 2),
//   - tags memory transfers with their direction, e.g. "cudaMemcpy(D2H)",
//   - recovers GPU-side kernel execution time with the CUDA event API and
//     a statically sized kernel timing table, reported as
//     @CUDA_EXEC_STRMxx pseudo-entries (Section III-B), checking for
//     completed kernels only inside device-to-host transfers to bound the
//     polling overhead, and
//   - measures implicit host blocking in synchronous memory operations by
//     issuing a cudaStreamSynchronize first and accounting the wait as
//     @CUDA_HOST_IDLE (Section III-C); cudaMemset is excluded, matching
//     the paper's microbenchmark finding.
//
// The wrapped value implements cudart.API and cudart.Driver, so the
// application cannot tell it is monitored — the Go rendering of dynamic
// library interposition.
package ipmcuda

import (
	"errors"
	"time"

	"ipmgo/internal/cudart"
	"ipmgo/internal/des"
	"ipmgo/internal/ipm"
)

// DefaultKTTSize is the default number of kernel timing table slots.
const DefaultKTTSize = 1024

// Options selects which monitoring features are active, mirroring the
// paper's Figs. 4 (host timing only), 5 (+kernel timing) and 6 (+host
// idle).
type Options struct {
	// KernelTiming enables event-based GPU kernel timing (the KTT).
	KernelTiming bool
	// HostIdle enables implicit-host-blocking measurement.
	HostIdle bool
	// KTTSize overrides the kernel timing table capacity.
	KTTSize int
	// CheckEveryCall checks the KTT for completed kernels on every
	// wrapped call instead of only in D2H transfers — the costly policy
	// the paper rejects; kept as an ablation.
	CheckEveryCall bool
	// EventOverheadCorrection is subtracted from every event-bracketed
	// kernel timing, the fidelity improvement the paper lists as under
	// investigation. Zero reproduces the published behaviour.
	EventOverheadCorrection time.Duration
	// KernelWatts, CopyWatts and MemsetWatts are the active power draws
	// of the device's engine classes (from the devmodel backend's power
	// model), used to attribute joules per call site: kernel energy is
	// priced over the event-measured device busy time at KTT flush,
	// copy/memset energy over the host-timed call interval. All three
	// zero (the default) disables attribution entirely — the legacy
	// no-power behaviour.
	KernelWatts float64
	CopyWatts   float64
	MemsetWatts float64
	// Trace, if non-nil, receives the monitoring-step timeline used to
	// reproduce the paper's Fig. 7 schematic.
	Trace func(TraceEvent)
}

// TraceEvent is one step of the monitoring timeline (Fig. 7 letters).
type TraceEvent struct {
	At    time.Duration
	Layer string // "app" | "ipm" | "gpu"
	What  string
}

func (o Options) withDefaults() Options {
	if o.KTTSize <= 0 {
		o.KTTSize = DefaultKTTSize
	}
	return o
}

// kttSlot is one entry of the kernel timing table: the bracketing events,
// the stream, and the kernel identity (the paper stores the kernel
// function pointer passed to cudaLaunch; we store the kernel name).
type kttSlot struct {
	used        bool
	start, stop cudart.Event
	created     bool
	stream      cudart.Stream
	kernel      string
}

// Monitor is the CUDA interposition layer. It implements cudart.API and
// cudart.Driver by delegation to the wrapped implementation.
type Monitor struct {
	inner cudart.API
	drv   cudart.Driver // non-nil when inner also implements the driver API
	mon   *ipm.Monitor
	proc  *des.Proc
	opts  Options

	ktt        []kttSlot // grown on demand up to opts.KTTSize
	kttFree    []int     // indices of released slots (LIFO)
	kttArmed   []int     // indices of armed slots, in arm order
	kttDropped int64     // launches not timed because the KTT was full

	// Mirror of the pending ConfigureCall stack, so the Launch wrapper
	// knows which stream the kernel goes to.
	cfgStreams []cudart.Stream

	// Memoized pseudo-entry handles for the KTT flush path: the
	// @CUDA_EXEC_STRMxx and @CUDA_EXEC_STRMxx:kernel names are built and
	// hashed once per (stream, kernel), not once per flushed kernel.
	execStreamRefs map[cudart.Stream]ipm.SigRef
	execKernelRefs map[execKey]ipm.SigRef
}

// execKey identifies a per-kernel pseudo entry.
type execKey struct {
	stream cudart.Stream
	kernel string
}

// execStreamRef returns the memoized @CUDA_EXEC_STRMxx handle.
func (m *Monitor) execStreamRef(s cudart.Stream) ipm.SigRef {
	if r, ok := m.execStreamRefs[s]; ok {
		return r
	}
	r := ipm.NewSigRef(ipm.ExecStreamName(int(s)))
	m.execStreamRefs[s] = r
	return r
}

// execKernelRef returns the memoized @CUDA_EXEC_STRMxx:kernel handle.
func (m *Monitor) execKernelRef(s cudart.Stream, kernel string) ipm.SigRef {
	k := execKey{stream: s, kernel: kernel}
	if r, ok := m.execKernelRefs[k]; ok {
		return r
	}
	r := ipm.NewSigRef(ipm.ExecKernelName(int(s), kernel))
	m.execKernelRefs[k] = r
	return r
}

var (
	_ cudart.API    = (*Monitor)(nil)
	_ cudart.Driver = (*Monitor)(nil)
)

// Wrap interposes IPM between the application and the CUDA runtime.
func Wrap(inner cudart.API, mon *ipm.Monitor, proc *des.Proc, opts Options) *Monitor {
	m := &Monitor{
		inner:          inner,
		mon:            mon,
		proc:           proc,
		opts:           opts.withDefaults(),
		execStreamRefs: make(map[cudart.Stream]ipm.SigRef),
		execKernelRefs: make(map[execKey]ipm.SigRef),
	}
	if d, ok := inner.(cudart.Driver); ok {
		m.drv = d
	}
	return m
}

// IPM returns the underlying per-rank monitor.
func (m *Monitor) IPM() *ipm.Monitor { return m.mon }

// KTTDropped reports how many kernel launches could not be timed because
// the kernel timing table was full.
func (m *Monitor) KTTDropped() int64 { return m.kttDropped }

// trace reports one timeline step to opts.Trace. Call sites pass constant
// strings, so a disabled trace costs one branch; a site that has to build
// its label guards the call itself (checkKTT).
func (m *Monitor) trace(layer, what string) {
	if m.opts.Trace != nil {
		m.opts.Trace(TraceEvent{At: m.mon.Now(), Layer: layer, What: what})
	}
}

// wrapperOverhead is the host-side cost charged per intercepted call, of
// the order IPM reports.
const wrapperOverhead = 150 * time.Nanosecond

// overhead charges the wrapper's host cost outside the timed window.
func (m *Monitor) overhead() {
	m.proc.Sleep(wrapperOverhead)
}

// timed runs fn bracketed by begin/end timers and records the duration
// under the pre-hashed signature handle — the paper's Fig. 2 wrapper
// anatomy, with the name hash memoized at package init.
func (m *Monitor) timed(ref ipm.SigRef, bytes int64, fn func()) {
	m.overhead()
	begin := m.mon.Now()
	fn()
	m.mon.ObserveRef(ref, bytes, m.mon.Now()-begin)
	if m.opts.CheckEveryCall {
		m.checkKTT()
	}
}

// timedE is the error-propagating form of timed: a call returning a
// non-success status additionally increments the signature's error
// counter, so the fault model can attribute failures per call site.
// cudaErrorNotReady is a polling result, not a failure, and is never
// counted.
func (m *Monitor) timedE(ref ipm.SigRef, bytes int64, fn func() error) error {
	return m.timedEW(ref, bytes, 0, fn)
}

// timedEW is timedE plus energy attribution: watts priced over the
// measured interval folds into the same hash entry as a
// zero-observation merge, so the timing statistics and telemetry spans
// stay byte-identical to the unpowered path. watts <= 0 charges
// nothing.
func (m *Monitor) timedEW(ref ipm.SigRef, bytes int64, watts float64, fn func() error) error {
	m.overhead()
	begin := m.mon.Now()
	err := fn()
	d := m.mon.Now() - begin
	if err != nil && !errors.Is(err, cudart.ErrNotReady) {
		m.mon.ObserveErrRef(ref, bytes, d)
	} else {
		m.mon.ObserveRef(ref, bytes, d)
	}
	m.foldEnergy(ref, bytes, watts, d)
	if m.opts.CheckEveryCall {
		m.checkKTT()
	}
	return err
}

// timedW is the energy-attributing form of timed (driver-API wrappers,
// which surface errors by value rather than by return).
func (m *Monitor) timedW(ref ipm.SigRef, bytes int64, watts float64, fn func()) {
	m.overhead()
	begin := m.mon.Now()
	fn()
	d := m.mon.Now() - begin
	m.mon.ObserveRef(ref, bytes, d)
	m.foldEnergy(ref, bytes, watts, d)
	if m.opts.CheckEveryCall {
		m.checkKTT()
	}
}

// foldEnergy attributes watts sustained over d to ref's hash entry.
func (m *Monitor) foldEnergy(ref ipm.SigRef, bytes int64, watts float64, d time.Duration) {
	if nj := ipm.EnergyNJ(watts, d); nj != 0 {
		m.mon.ObserveNRef(ref, bytes, ipm.Stats{Energy: nj})
	}
}

// ---- Kernel timing table (Section III-B) ----

// findSlot returns a free KTT slot index or -1 when the table is full:
// the most recently released slot, else the next never-used one (so
// slots are handed out 0, 1, 2, ... and then LIFO). The table grows
// here and only here, so a *kttSlot taken after findSlot stays valid
// until the next launch.
func (m *Monitor) findSlot() int {
	if n := len(m.kttFree); n > 0 {
		i := m.kttFree[n-1]
		m.kttFree = m.kttFree[:n-1]
		return i
	}
	if len(m.ktt) < m.opts.KTTSize {
		m.ktt = append(m.ktt, kttSlot{})
		return len(m.ktt) - 1
	}
	return -1
}

// releaseSlot returns a slot to the free list.
func (m *Monitor) releaseSlot(i int) {
	m.ktt[i].used = false
	m.kttFree = append(m.kttFree, i)
}

// armSlot creates (once) and records the start event for a launch.
func (m *Monitor) armSlot(i int, stream cudart.Stream, kernel string) bool {
	s := &m.ktt[i]
	if !s.created {
		start, err := m.inner.EventCreate()
		if err != nil {
			return false
		}
		stop, err := m.inner.EventCreate()
		if err != nil {
			return false
		}
		s.start, s.stop, s.created = start, stop, true
	}
	if err := m.inner.EventRecord(s.start, stream); err != nil {
		return false
	}
	s.used = true
	s.stream = stream
	s.kernel = kernel
	m.kttArmed = append(m.kttArmed, i)
	m.trace("ipm", "record start event (b)")
	return true
}

// unarm removes a just-armed slot (the most recent entry) after a
// downstream failure and frees it.
func (m *Monitor) unarm(i int) {
	if n := len(m.kttArmed); n > 0 && m.kttArmed[n-1] == i {
		m.kttArmed = m.kttArmed[:n-1]
	}
	m.releaseSlot(i)
}

// checkKTT queries every armed slot for completion and flushes finished
// kernels into the hash table (the (h) step of Fig. 7).
func (m *Monitor) checkKTT() {
	remaining := m.kttArmed[:0]
	for _, i := range m.kttArmed {
		s := &m.ktt[i]
		if err := m.inner.EventQuery(s.stop); err != nil {
			remaining = append(remaining, i) // not finished
			continue
		}
		d, err := m.inner.EventElapsedTime(s.start, s.stop)
		m.releaseSlot(i)
		if err != nil {
			continue
		}
		if c := m.opts.EventOverheadCorrection; c > 0 {
			if d > c {
				d -= c
			} else {
				d = 0
			}
		}
		stat := ipm.Stats{Count: 1, Total: d, Min: d, Max: d}
		m.mon.ObserveNRef(m.execStreamRef(s.stream), 0, stat)
		// Kernel energy (power × event-measured device busy time) goes on
		// the per-kernel entry only: rank totals sum every entry's energy,
		// so pricing the per-stream summary too would double-count.
		stat.Energy = ipm.EnergyNJ(m.opts.KernelWatts, d)
		m.mon.ObserveNRef(m.execKernelRef(s.stream, s.kernel), 0, stat)
		if m.opts.Trace != nil { // the label is built only for a listener
			m.trace("ipm", "KTT flush "+s.kernel+" (h)")
		}
	}
	m.kttArmed = remaining
}

// Flush synchronises the device and drains the kernel timing table. The
// harness calls it at application end (IPM's finalisation), since a kernel
// not followed by any D2H transfer would otherwise stay unreported.
func (m *Monitor) Flush() {
	if !m.opts.KernelTiming {
		return
	}
	// Guarded: a KTT bookkeeping bug at finalisation must not take down an
	// application that already ran to completion.
	m.mon.Guard("ktt-flush", func() {
		m.inner.ThreadSynchronize()
		m.checkKTT()
	})
}

// ---- Host idle measurement (Section III-C) ----

// hostIdle issues a StreamSynchronize for the affected stream ahead of an
// implicitly blocking call and accounts the wait as @CUDA_HOST_IDLE.
func (m *Monitor) hostIdle(s cudart.Stream) {
	if !m.opts.HostIdle {
		return
	}
	m.trace("ipm", "host idle sync")
	begin := m.mon.Now()
	if err := m.inner.StreamSynchronize(s); err != nil {
		return
	}
	if idle := m.mon.Now() - begin; idle > 0 {
		m.mon.ObserveRef(refHostIdle, 0, idle)
	}
}
