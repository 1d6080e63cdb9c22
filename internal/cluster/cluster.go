// Package cluster wires the simulated substrates into a GPU cluster and
// runs MPI+CUDA applications on it, with or without IPM monitoring. It
// models NERSC's Dirac cluster, the evaluation platform of the paper: 48
// nodes, two quad-core Xeon 5530s and one Tesla C2050 per node, QDR
// InfiniBand, CUDA 3.1.
package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"ipmgo/internal/cmdqueue"
	"ipmgo/internal/cublas"
	"ipmgo/internal/cudaprof"
	"ipmgo/internal/cudart"
	"ipmgo/internal/cufft"
	"ipmgo/internal/des"
	"ipmgo/internal/devmodel"
	"ipmgo/internal/faultsim"
	"ipmgo/internal/gpucounters"
	"ipmgo/internal/gpusim"
	"ipmgo/internal/iosim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmblas"
	"ipmgo/internal/ipmcuda"
	"ipmgo/internal/ipmio"
	"ipmgo/internal/ipmmpi"
	"ipmgo/internal/ipmomp"
	"ipmgo/internal/mpisim"
	"ipmgo/internal/noise"
	"ipmgo/internal/ompsim"
	"ipmgo/internal/perfmodel"
	"ipmgo/internal/telemetry"
)

// metricsInterval is the virtual-time period of the live metrics publish
// and of the power sampling tick (see Config.Metrics).
const metricsInterval = 50 * time.Millisecond

// Config describes one simulated job.
type Config struct {
	// Nodes is the number of cluster nodes used (each with one GPU).
	Nodes int
	// RanksPerNode is the number of MPI tasks per node; they share the
	// node's GPU (the paper's shared-GPU scenario when > 1).
	RanksPerNode int

	GPU perfmodel.GPUSpec
	// Device selects a device backend from the devmodel registry:
	// copy-engine count and the power model layered on top of the GPU
	// performance spec. The zero value keeps the pre-registry behaviour
	// (one copy engine per direction, no energy attribution). When both
	// Device and GPU are set, GPU remains the performance-model
	// authority, so callers can still tune individual parameters after
	// picking a backend.
	Device devmodel.Spec
	Net    perfmodel.NetSpec
	// FS models the shared parallel filesystem.
	FS iosim.Spec
	// Runtime tunes the CUDA runtime's host-side costs.
	Runtime cudart.Options

	// Queue turns on batching in the driver command-queue layer: each
	// rank's CUDA context's submission queue ("ctx<rank>/q0") batches
	// kernel launches, memcpys, memsets and event records between the
	// runtime API and the device. QueueFlushDepth/QueueFlushInterval tune
	// the flush heuristics (0 selects cmdqueue defaults). When Monitor is
	// also set, per-call-site submit stall is folded into the IPM hash
	// table; when Telemetry/Metrics are set, each queue gets a Perfetto
	// track (submit spans + depth counter) and labeled Prometheus series.
	// Off, each context submits every command at once, unobserved.
	Queue              bool
	QueueFlushDepth    int
	QueueFlushInterval time.Duration

	// Monitor enables IPM; CUDA selects the CUDA-layer features.
	Monitor bool
	CUDA    ipmcuda.Options

	// CUDAProfile attaches the simulated CUDA profiler to every device
	// (the CUDA_PROFILE=1 baseline of Table I).
	CUDAProfile bool

	// Counters attaches the PAPI-style GPU counter component to every
	// device (the paper's future-work item 1).
	Counters bool

	// LibCostOnly disables the functional payloads of CUBLAS and CUFFT
	// (timing only), so large workload models stay cheap to simulate.
	LibCostOnly bool

	// Telemetry, when non-nil, records a span for every user region and
	// monitored host call (requires Monitor) and for every device
	// operation, for export as a Perfetto-loadable timeline trace.
	Telemetry *telemetry.Recorder
	// Metrics, when non-nil, receives live Prometheus-style samples.
	// Samples are published from inside the simulation loop every
	// metricsInterval of virtual time and once at job end, so an HTTP
	// scrape never races with the running simulation.
	Metrics *telemetry.Registry

	// Faults, when non-nil, activates deterministic fault injection and
	// the resilience machinery: per-rank CUDA error injectors, straggler
	// clock skew in Compute, scheduled rank deaths and monitor panics,
	// capped-backoff retry of transient CUDA errors, and (when Monitor is
	// also set) a virtual-time watchdog that kills ranks whose monitored
	// activity stalls. Every fault is keyed to virtual time and a PRNG
	// seeded from (Plan.Seed, rank), so a faulty run is byte-identical
	// across repetitions and worker counts.
	Faults *faultsim.Plan

	// Command is the command line recorded in the profile.
	Command string
	// NoiseSeed/NoiseAmp configure run-to-run variability (amp 0 = none).
	NoiseSeed int64
	NoiseAmp  float64

	// Horizon bounds the simulation (default 10h of virtual time).
	Horizon time.Duration
}

// Dirac returns the evaluation platform's configuration for a job on the
// given number of nodes.
func Dirac(nodes, ranksPerNode int) Config {
	dev, _ := devmodel.Lookup("c2050")
	return Config{
		Nodes:        nodes,
		RanksPerNode: ranksPerNode,
		GPU:          perfmodel.TeslaC2050(),
		Device:       dev,
		Net:          perfmodel.QDRInfiniBand(),
		FS:           iosim.GPFSScratch(),
		Command:      "./a.out",
	}
}

// Env is the per-rank execution environment handed to the application:
// exactly the handles a real MPI+CUDA process holds. When monitoring is
// enabled every handle is the IPM-interposed variant; the application
// cannot tell the difference.
type Env struct {
	Rank  int
	Size  int
	Node  int
	Proc  *des.Proc
	CUDA  cudart.API
	MPI   mpisim.Comm
	BLAS  cublas.BLAS
	FFT   cufft.FFT
	FS    FileSystem
	Noise *noise.Model

	// IPM is non-nil when monitoring is enabled.
	IPM *ipm.Monitor
	// Dev is the rank's (possibly shared) GPU.
	Dev *gpusim.Device

	cudaMon *ipmcuda.Monitor
	ompMon  *ipmomp.Monitor
	// skew is the straggler clock multiplier applied to Compute (1 = none).
	skew float64
}

// Parallel runs an OpenMP-style fork/join region on the rank's cores,
// monitored when IPM is enabled.
func (e *Env) Parallel(name string, nthreads int, body func(tid int, p *des.Proc)) (ompsim.RegionStats, error) {
	if e.ompMon != nil {
		return e.ompMon.Parallel(e.Proc, name, nthreads, body)
	}
	return ompsim.Parallel(e.Proc, nthreads, body)
}

// ParallelFor runs a monitored statically scheduled parallel loop.
func (e *Env) ParallelFor(name string, nthreads, n int, iterCost func(i int) time.Duration) (ompsim.RegionStats, error) {
	if e.ompMon != nil {
		return e.ompMon.For(e.Proc, name, nthreads, n, iterCost)
	}
	return ompsim.For(e.Proc, nthreads, n, iterCost)
}

// Compute models host computation of duration d, perturbed by the noise
// model and stretched by the rank's straggler skew when a fault plan
// assigns one.
func (e *Env) Compute(d time.Duration) {
	d = e.Noise.Perturb(d)
	if e.skew > 0 && e.skew != 1 {
		d = time.Duration(float64(d) * e.skew)
	}
	e.Proc.Sleep(d)
}

// File is an open file on the shared filesystem, from the rank's (possibly
// monitored) point of view.
type File interface {
	Write(data []byte) (int, error)
	Read(buf []byte) (int, error)
	SeekTo(offset int64) error
	Close() error
	Size() int64
	Name() string
}

// FileSystem is the per-rank view of the shared parallel filesystem.
type FileSystem interface {
	Open(name string, create bool) (File, error)
	Unlink(name string) error
}

// bareFS adapts iosim.FS to the per-rank FileSystem view.
type bareFS struct {
	fs   *iosim.FS
	proc *des.Proc
}

func (b bareFS) Open(name string, create bool) (File, error) {
	h, err := b.fs.Open(b.proc, name, create)
	if err != nil {
		return nil, err
	}
	return h, nil
}
func (b bareFS) Unlink(name string) error { return b.fs.Unlink(b.proc, name) }

// monFS adapts the IPM-monitored ipmio.FS.
type monFS struct {
	fs   *ipmio.FS
	proc *des.Proc
}

func (m monFS) Open(name string, create bool) (File, error) {
	h, err := m.fs.Open(m.proc, name, create)
	if err != nil {
		return nil, err
	}
	return h, nil
}
func (m monFS) Unlink(name string) error { return m.fs.Unlink(m.proc, name) }

// LostRank records one rank that did not finish: killed by the fault
// plan, by the watchdog, or still blocked when the run was truncated.
type LostRank struct {
	Rank   int
	At     time.Duration
	Reason string
}

// Result is the outcome of one job run.
type Result struct {
	Wallclock time.Duration
	// Profile is the aggregated IPM job profile (nil when unmonitored).
	Profile *ipm.JobProfile
	// Profilers holds one CUDA profiler per node when CUDAProfile is set.
	Profilers []*cudaprof.Profiler
	// Counters holds one counter component per node when Counters is set.
	Counters []*gpucounters.Component

	// Lost lists the ranks that died, in rank order. The profile (when
	// monitoring is on) still carries their partial snapshots, flagged as
	// degraded fidelity.
	Lost []LostRank
	// FaultsInjected counts CUDA errors delivered by the fault plan
	// across all ranks; Retries and GaveUp count the resilience layer's
	// recovered and abandoned transient failures.
	FaultsInjected int64
	Retries        int64
	GaveUp         int64
	// Truncated is non-empty when fault injection was active and the run
	// ended with ranks still blocked (hung-device deadlock with the
	// watchdog disabled, or the horizon expiring). The result is then
	// assembled from whatever the finished ranks produced.
	Truncated string
}

// Run executes app once on the configured cluster and returns the result.
func Run(cfg Config, app func(env *Env)) (*Result, error) {
	if cfg.Nodes <= 0 || cfg.RanksPerNode <= 0 {
		return nil, fmt.Errorf("cluster: bad layout %d nodes x %d ranks", cfg.Nodes, cfg.RanksPerNode)
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 10 * time.Hour
	}
	// Compose the effective device backend. Ad-hoc Configs (zero Device)
	// keep the pre-registry behaviour: one copy engine per direction and
	// no power model, so their output is byte-identical to older
	// releases. With a backend selected, cfg.GPU stays the
	// performance-model authority — callers tune it after Dirac() — and
	// a backend-only Config inherits the backend's GPU spec.
	dev := cfg.Device
	switch {
	case !dev.Defined():
		dev = devmodel.Custom(cfg.GPU)
	case cfg.GPU != (perfmodel.GPUSpec{}):
		dev.GPU = cfg.GPU
	default:
		cfg.GPU = dev.GPU
	}
	if cfg.Monitor && !dev.Power.Zero() {
		// Unset watts inherit the backend's power model; explicit values
		// win, so an experiment can override one engine class.
		if cfg.CUDA.KernelWatts == 0 {
			cfg.CUDA.KernelWatts = dev.Power.KernelWatts
		}
		if cfg.CUDA.CopyWatts == 0 {
			cfg.CUDA.CopyWatts = dev.Power.CopyWatts
		}
		if cfg.CUDA.MemsetWatts == 0 {
			cfg.CUDA.MemsetWatts = dev.Power.MemsetWatts
		}
	}
	size := cfg.Nodes * cfg.RanksPerNode
	eng := des.NewEngine()

	devices := make([]*gpusim.Device, cfg.Nodes)
	profilers := make([]*cudaprof.Profiler, 0, cfg.Nodes)
	counters := make([]*gpucounters.Component, 0, cfg.Nodes)
	for i := range devices {
		devices[i] = gpusim.NewDeviceSpec(eng, dev)
		if cfg.CUDAProfile {
			profilers = append(profilers, cudaprof.Attach(devices[i]))
		}
		if cfg.Counters {
			counters = append(counters, gpucounters.Attach(devices[i]))
		}
		if cfg.Telemetry != nil {
			devices[i].AttachTelemetry(cfg.Telemetry, fmt.Sprintf("gpu%d", i))
		}
	}

	var obsHist *telemetry.Histogram
	if cfg.Metrics != nil {
		obsHist = cfg.Metrics.Histogram(
			"ipm_observe_latency_ns",
			"Real (wall-clock) latency of one Monitor observation in nanoseconds.",
			telemetry.ExpBuckets(8, 2, 12),
		)
	}

	// Queue metric families are shared across ranks; each rank memoizes
	// its own per-queue cells inside the spawn closure below.
	var depthVec, flushVec *telemetry.Vec
	var stallHist *telemetry.Histogram
	if cfg.Queue && cfg.Metrics != nil {
		depthVec = cfg.Metrics.GaugeVec(
			"ipm_queue_depth",
			"Commands currently buffered in the context's submission queue.",
			"queue",
		)
		flushVec = cfg.Metrics.CounterVec(
			"ipm_queue_flushes_total",
			"Batches submitted from the context's queue to the device.",
			"queue",
		)
		stallHist = cfg.Metrics.Histogram(
			"ipm_submit_stall_ns",
			"Virtual time a command waited in the submission queue before device hand-off, in nanoseconds.",
			telemetry.ExpBuckets(64, 2, 16),
		)
	}

	// Power metric families exist only when the backend carries a power
	// model, so legacy runs expose no zero-valued energy series.
	var powerVec, energyVec *telemetry.Vec
	if cfg.Metrics != nil && !dev.Power.Zero() {
		powerVec = cfg.Metrics.GaugeVec(
			"ipm_power_watts",
			"Modeled instantaneous device power draw (idle floor plus active engines), averaged over the last sample interval.",
			"gpu",
		)
		energyVec = cfg.Metrics.CounterVec(
			"ipm_energy_joules_total",
			"Modeled cumulative device energy: idle floor for the device lifetime plus per-engine-class active draw.",
			"gpu",
		)
	}

	world, err := mpisim.NewWorld(eng, mpisim.Config{Size: size, Net: cfg.Net, RanksPerNode: cfg.RanksPerNode})
	if err != nil {
		return nil, err
	}
	if cfg.FS.BandwidthGBs == 0 {
		cfg.FS = iosim.GPFSScratch()
	}
	sharedFS := iosim.NewFS(eng, cfg.FS)

	plan := cfg.Faults
	st := &runState{
		cfg:        &cfg,
		eng:        eng,
		devices:    devices,
		monitors:   make([]*ipm.Monitor, size),
		injectors:  make([]*faultsim.Injector, size),
		resilients: make([]*faultsim.Resilient, size),
		lost:       make([]*LostRank, size),
		done:       make([]bool, size),
		ownProbes:  make([]uint64, size),
	}
	procs := make([]*des.Proc, size)
	ranksDone := 0
	for rank := 0; rank < size; rank++ {
		rank := rank
		node := world.NodeOf(rank)
		procs[rank] = eng.Spawn(fmt.Sprintf("rank%d", rank), func(p *des.Proc) {
			env := &Env{
				Rank:  rank,
				Size:  size,
				Node:  node,
				Proc:  p,
				Dev:   devices[node],
				Noise: noise.New(cfg.NoiseSeed*1000003+int64(rank), cfg.NoiseAmp),
			}
			rtOpts := cfg.Runtime
			if plan != nil {
				in := plan.Injector(rank)
				st.injectors[rank] = in
				rtOpts.Inject = in.Inject
				env.skew = plan.SkewFor(rank)
				// A hanging device loss marks the (possibly shared) GPU
				// lost, so in-flight completions never fire — the hung
				// stream the watchdog exists to catch.
				in.OnDeviceLost(devices[node].MarkLost)
			}
			if cfg.Queue {
				qname := fmt.Sprintf("ctx%d/q0", rank)
				qopts := &cmdqueue.Options{
					FlushDepth:    cfg.QueueFlushDepth,
					FlushInterval: cfg.QueueFlushInterval,
					Name:          qname,
					Telemetry:     cfg.Telemetry,
				}
				if depthVec != nil {
					qopts.Depth = depthVec.With(qname)
					qopts.Flushes = flushVec.With(qname)
					qopts.Stall = stallHist
				}
				if cfg.Monitor {
					// Submit stall folds into the same hash-table row as
					// the call's host timing: the site names the queue
					// reports are byte-identical to the ipmcuda signatures,
					// and the SigRef is memoized per site so the flush path
					// stays allocation-free in steady state. The probes an
					// observation costs are counted apart, so the watchdog
					// does not read the monitor's own bookkeeping as the
					// rank making progress.
					refs := make(map[string]ipm.SigRef, 16)
					qopts.OnSubmit = func(site string, bytes int64, stall time.Duration) {
						m := env.IPM
						if m == nil {
							return // flush before the monitor attached
						}
						ref, ok := refs[site]
						if !ok {
							ref = ipm.NewSigRef(site)
							refs[site] = ref
						}
						before := m.Table().Probes()
						m.ObserveNRef(ref, bytes, ipm.Stats{Submits: 1, SubmitStall: stall})
						st.ownProbes[rank] += m.Table().Probes() - before
					}
				}
				rtOpts.Queue = qopts
			}
			rt := cudart.NewRuntime(p, devices[node], rtOpts)
			comm, err := world.Attach(rank, p)
			if err != nil {
				panic(err)
			}
			env.CUDA = rt
			env.MPI = comm
			env.FS = bareFS{fs: sharedFS, proc: p}
			if cfg.Monitor {
				host := fmt.Sprintf("dirac%d", node+1)
				mon := ipm.NewMonitor(rank, host, cfg.Command, p.Now, 0)
				if cfg.Telemetry != nil {
					mon.AttachTelemetry(cfg.Telemetry)
				}
				if obsHist != nil {
					mon.SetLatencyHistogram(obsHist)
				}
				mon.Start()
				st.monitors[rank] = mon
				env.IPM = mon
				env.cudaMon = ipmcuda.Wrap(rt, mon, p, cfg.CUDA)
				env.CUDA = env.cudaMon
				env.MPI = ipmmpi.Wrap(comm, mon)
				env.FS = monFS{fs: ipmio.Wrap(sharedFS, mon), proc: p}
				env.ompMon = ipmomp.Wrap(mon)
			}
			if plan != nil && !plan.Retry.Disable {
				// Outermost layer, so each retry attempt passes through the
				// monitor again and is recorded like any application call.
				res := faultsim.NewResilient(env.CUDA, p, plan.Retry)
				st.resilients[rank] = res
				env.CUDA = res
			}
			h := cublas.NewHandle(env.CUDA)
			h.SetCostOnly(cfg.LibCostOnly)
			env.BLAS = h
			fftLib := cufft.New(env.CUDA)
			fftLib.SetCostOnly(cfg.LibCostOnly)
			env.FFT = fftLib
			if cfg.Monitor {
				env.BLAS = ipmblas.WrapBLAS(h, st.monitors[rank])
				env.FFT = ipmblas.WrapFFT(env.FFT, st.monitors[rank])
			}

			defer func() {
				if r := recover(); r != nil {
					k, ok := r.(des.Killed)
					if !ok {
						panic(r) // a real bug still aborts the engine
					}
					// Rank death: record it, break the communicator so
					// blocked peers fail fast, and freeze the monitor. No
					// Flush here — it would block on a device that may be
					// hung, and a killed proc cannot block again.
					st.lost[rank] = &LostRank{Rank: rank, At: p.Now(), Reason: k.Reason}
					world.MarkFailed(rank)
				} else if env.cudaMon != nil {
					env.cudaMon.Flush()
				}
				if m := st.monitors[rank]; m != nil {
					m.Stop()
				}
				st.done[rank] = true
				ranksDone++
			}()
			app(env)
		})
	}

	if plan != nil {
		for rank := 0; rank < size; rank++ {
			rank := rank
			if at, ok := plan.DeathFor(rank); ok {
				eng.Schedule(at, func() {
					procs[rank].Kill(fmt.Sprintf("fault plan: rank death at %v", at))
				})
			}
			for _, at := range plan.MonitorPanicsFor(rank) {
				eng.Schedule(at, func() {
					if m := st.monitors[rank]; m != nil {
						m.Guard("injected fault", func() { panic("injected monitor panic") })
					}
				})
			}
		}
	}

	if plan != nil && !plan.Watchdog.Disable && cfg.Monitor {
		// Virtual-time watchdog: a rank whose monitored activity (hash
		// table probes made by the application's calls, not by the
		// monitor's own submit observations) has not advanced for
		// HangTimeout is declared hung and killed, turning a silent stall
		// (e.g. waiting on a lost device) into an explicit rank death
		// with a partial profile. The timeout must exceed the longest
		// legitimate gap between monitored calls, or stragglers blocked in
		// slow collectives get killed too.
		interval := plan.Watchdog.IntervalOrDefault()
		hangAfter := plan.Watchdog.HangTimeoutOrDefault()
		lastProbes := make([]uint64, size)
		lastChange := make([]time.Duration, size)
		var tick func()
		tick = func() {
			// Kill at most the single stalest rank per tick: when one rank
			// hangs on a dead device, its peers stall too (blocked in a
			// collective waiting for it) and would cross the timeout in the
			// same tick. Killing the hang's origin breaks the collective,
			// unblocks the peers, and the fresh window below lets their
			// probes prove they recovered.
			worst, worstAge := -1, time.Duration(0)
			for r := 0; r < size; r++ {
				m := st.monitors[r]
				if m == nil || st.done[r] {
					continue
				}
				if p := m.Table().Probes() - st.ownProbes[r]; p != lastProbes[r] {
					lastProbes[r] = p
					lastChange[r] = eng.Now()
					continue
				}
				if age := eng.Now() - lastChange[r]; age >= hangAfter && age > worstAge {
					worst, worstAge = r, age
				}
			}
			if worst >= 0 {
				procs[worst].Kill(fmt.Sprintf("watchdog: no monitored activity for %v", hangAfter))
				for r := 0; r < size; r++ {
					if r != worst {
						lastChange[r] = eng.Now()
					}
				}
			}
			if ranksDone < size {
				eng.ScheduleAfter(interval, tick)
			}
		}
		eng.ScheduleAfter(interval, tick)
	}

	// The power tick samples each device's modeled energy counter on the
	// metrics cadence: the per-interval delta becomes the instantaneous
	// watts gauge and a Perfetto counter point on the device's track, the
	// cumulative total feeds the joules counter. Like every aggregation
	// downstream, it works in integer nanojoules, so the published values
	// are independent of worker count and wall-clock scheduling.
	var powerFinal func()
	if !dev.Power.Zero() && (powerVec != nil || cfg.Telemetry != nil) {
		lastNJ := make([]int64, len(devices))
		var lastAt time.Duration
		sample := func() {
			now := eng.Now()
			idleNJ := devmodel.EnergyNJ(dev.Power.IdleWatts, now)
			for i, d := range devices {
				totalNJ := idleNJ + d.ActiveEnergyNJ()
				watts := 0.0
				if dt := now - lastAt; dt > 0 {
					// nJ per ns is exactly watts.
					watts = float64(totalNJ-lastNJ[i]) / float64(dt)
				}
				lastNJ[i] = totalNJ
				if powerVec != nil {
					gpu := strconv.Itoa(i)
					powerVec.With(gpu).Set(watts)
					energyVec.With(gpu).Set(devmodel.Joules(totalNJ))
				}
				if cfg.Telemetry != nil {
					cfg.Telemetry.RecordCounter(telemetry.CounterPoint{
						Track: fmt.Sprintf("gpu%d", i),
						Name:  "power_watts",
						Time:  now,
						Value: watts,
					})
				}
			}
			lastAt = now
		}
		var tick func()
		tick = func() {
			sample()
			if ranksDone < size {
				eng.ScheduleAfter(metricsInterval, tick)
			}
		}
		eng.ScheduleAfter(metricsInterval, tick)
		powerFinal = sample
	}

	if cfg.Metrics != nil {
		// Publish from inside the event loop so sampling the monitor
		// tables never races with the ranks mutating them. The tick stops
		// rescheduling itself once every rank has finished; otherwise it
		// would keep the event queue non-empty forever.
		var tick func()
		tick = func() {
			cfg.Metrics.Publish(cfg.Command, collectSamples(st))
			if ranksDone < size {
				eng.ScheduleAfter(metricsInterval, tick)
			}
		}
		eng.ScheduleAfter(metricsInterval, tick)
	}

	res := &Result{Profilers: profilers, Counters: counters}
	if runErr := eng.RunFor(cfg.Horizon); runErr != nil {
		var dl *des.DeadlockError
		var hz *des.HorizonError
		if plan == nil || (!errors.As(runErr, &dl) && !errors.As(runErr, &hz)) {
			return nil, fmt.Errorf("cluster: run: %w", runErr)
		}
		// Under fault injection an unfinished run is itself a monitored
		// outcome: mark the stuck ranks lost and salvage what the rest
		// produced.
		res.Truncated = runErr.Error()
		for r := 0; r < size; r++ {
			if st.done[r] || st.lost[r] != nil {
				continue
			}
			st.lost[r] = &LostRank{Rank: r, At: eng.Now(), Reason: "run truncated: " + runErr.Error()}
			if m := st.monitors[r]; m != nil {
				m.Stop()
			}
		}
	}
	if powerFinal != nil {
		// Final power sample at end-of-job time, so the energy counter
		// covers the whole run.
		powerFinal()
	}
	if cfg.Metrics != nil {
		// Final publish with the end-of-job state.
		cfg.Metrics.Publish(cfg.Command, collectSamples(st))
	}

	res.Wallclock = eng.Now()
	for r := 0; r < size; r++ {
		if l := st.lost[r]; l != nil {
			res.Lost = append(res.Lost, *l)
		}
		if in := st.injectors[r]; in != nil {
			res.FaultsInjected += in.Injected()
		}
		if rs := st.resilients[r]; rs != nil {
			res.Retries += rs.Retries()
			res.GaveUp += rs.GaveUp()
		}
	}
	if cfg.Monitor {
		ranks := make([]ipm.RankProfile, size)
		for i, m := range st.monitors {
			i, m := i, m
			rp := ipm.RankProfile{Rank: i}
			// Guarded: a snapshot of a rank that died mid-update must
			// degrade to an empty profile, not take down the job report.
			m.Guard("snapshot", func() { rp = ipm.Snapshot(m) })
			if cfg.Device.Defined() {
				// Device attribution is stamped only for runs that picked
				// a backend, so ad-hoc Configs keep their pre-registry
				// logs byte-identical.
				rp.Device = dev.GPU.Name
			}
			if l := st.lost[i]; l != nil {
				rp.Lost = true
				rp.LostAt = l.At
				rp.LostReason = l.Reason
			}
			ranks[i] = rp
		}
		res.Profile = ipm.NewJobProfile(cfg.Command, cfg.Nodes, ranks)
	}
	return res, nil
}
