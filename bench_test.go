// Package ipmgo's root benchmark suite: one testing.B benchmark per table
// and figure of the paper (regenerating its data via internal/experiments,
// at the quick scale so `go test -bench .` stays minutes, not hours; run
// cmd/experiments for the full-scale reproduction), plus the ablation
// benchmarks for the design choices DESIGN.md calls out.
//
// Benchmarks report the experiment's headline quantity via
// b.ReportMetric, so `go test -bench . -benchmem` doubles as a regression
// check on the reproduction targets.
package ipmgo

import (
	"fmt"
	"testing"
	"time"

	"ipmgo/internal/alloctest"
	"ipmgo/internal/cluster"
	"ipmgo/internal/cudart"
	"ipmgo/internal/devmodel"
	"ipmgo/internal/experiments"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmcuda"
	"ipmgo/internal/perfmodel"
	"ipmgo/internal/telemetry"
	"ipmgo/internal/workloads"
)

var quick = experiments.Options{Quick: true, Seed: 2011}

// BenchmarkFig4SquareBanner regenerates the host-timing-only banner.
func BenchmarkFig4SquareBanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5KernelTiming regenerates the kernel-timing banner.
func BenchmarkFig5KernelTiming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6HostIdle regenerates the host-idle banner.
func BenchmarkFig6HostIdle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Timeline regenerates the monitoring timeline.
func BenchmarkFig7Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIAccuracy regenerates Table I and reports the worst-case
// relative error of IPM's event-based kernel timing.
func BenchmarkTableIAccuracy(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(quick)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.DiffPercent > worst {
				worst = r.DiffPercent
			}
		}
	}
	b.ReportMetric(worst, "worst-diff-%")
}

// BenchmarkFig8Dilation regenerates the HPL dilation ensemble and reports
// the measured monitoring dilation.
func BenchmarkFig8Dilation(b *testing.B) {
	var dil float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(quick)
		if err != nil {
			b.Fatal(err)
		}
		dil = r.DilationPct
	}
	b.ReportMetric(dil, "dilation-%")
}

// BenchmarkFig9HPLProfile regenerates the HPL CUDA+MPI profile.
func BenchmarkFig9HPLProfile(b *testing.B) {
	var idle float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(quick)
		if err != nil {
			b.Fatal(err)
		}
		idle = r.HostIdlePct
	}
	b.ReportMetric(idle, "host-idle-%")
}

// BenchmarkHPLRanks is the monitor's scaling curve: one monitored
// 20-iteration HPL job (the `ipmrun -nodes N -iterations 20 hpl` run) at
// growing rank counts. B/op per rank is the simulator's and the monitor's
// footprint per rank. Kept out of BENCH_PATTERN: the 1024-rank point
// takes seconds per op.
func BenchmarkHPLRanks(b *testing.B) {
	for _, ranks := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg := cluster.Dirac(ranks, 1)
			cfg.Monitor = true
			cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
			cfg.NoiseSeed = 2011
			cfg.NoiseAmp = 0.01
			cfg.Command = "./hpl"
			hpl := workloads.DefaultHPL()
			hpl.Iterations = 20
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Run(cfg, func(env *cluster.Env) {
					if err := workloads.HPL(env, hpl); err != nil {
						panic(err)
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10Paratec regenerates the PARATEC scaling sweep and reports
// the MKL->CUBLAS speedup at the base process count.
func BenchmarkFig10Paratec(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(quick)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(rows[0].Wallclock) / float64(rows[1].Wallclock)
	}
	b.ReportMetric(speedup, "cublas-speedup-x")
}

// BenchmarkFig11Amber regenerates the Amber profile and reports the GPU
// utilisation.
func BenchmarkFig11Amber(b *testing.B) {
	var gpu float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(quick)
		if err != nil {
			b.Fatal(err)
		}
		gpu = r.GPUPct
	}
	b.ReportMetric(gpu, "gpu-util-%")
}

// ---- Ablation benchmarks (DESIGN.md) ----

// kernelChurn is a workload that launches many short kernels with D2H
// readbacks — the stress case for the KTT machinery.
func kernelChurn(kernels, kttChecksPerKernel int) func(env *cluster.Env) {
	return func(env *cluster.Env) {
		d, err := env.CUDA.Malloc(4096)
		if err != nil {
			panic(err)
		}
		fn := &cudart.Func{Name: "churn", FixedCost: perfmodel.KernelCost{Fixed: 200 * time.Microsecond}}
		buf := make([]byte, 4096)
		for i := 0; i < kernels; i++ {
			if err := env.CUDA.LaunchKernel(fn, cudart.Dim3{X: 16}, cudart.Dim3{X: 64}, 0); err != nil {
				panic(err)
			}
			if err := env.CUDA.Memcpy(cudart.HostPtr(buf), cudart.DevicePtr(d), 4096, cudart.MemcpyDeviceToHost); err != nil {
				panic(err)
			}
			for j := 0; j < kttChecksPerKernel; j++ {
				if _, err := env.CUDA.GetDevice(); err != nil {
					panic(err)
				}
			}
		}
	}
}

func runMonitoredChurn(b *testing.B, opts ipmcuda.Options) time.Duration {
	b.Helper()
	cfg := cluster.Dirac(1, 1)
	cfg.Monitor = true
	cfg.CUDA = opts
	res, err := cluster.Run(cfg, kernelChurn(500, 4))
	if err != nil {
		b.Fatal(err)
	}
	return res.Wallclock
}

// BenchmarkAblationCompletionPolicy compares the paper's
// check-only-in-D2H policy against checking the KTT on every call
// (rejected in Section III-B as potentially costly). The metric is the
// extra virtual wallclock of the eager policy.
func BenchmarkAblationCompletionPolicy(b *testing.B) {
	var extra float64
	for i := 0; i < b.N; i++ {
		d2hOnly := runMonitoredChurn(b, ipmcuda.Options{KernelTiming: true})
		every := runMonitoredChurn(b, ipmcuda.Options{KernelTiming: true, CheckEveryCall: true})
		extra = 100 * (float64(every) - float64(d2hOnly)) / float64(d2hOnly)
	}
	b.ReportMetric(extra, "eager-extra-%")
}

// BenchmarkAblationEventCorrection measures the accuracy gain of
// subtracting the constant event overhead (the paper's "we are currently
// investigating" improvement) on the scan benchmark, Table I's worst
// case.
func BenchmarkAblationEventCorrection(b *testing.B) {
	scan := workloads.SDKSuite()[7]
	run := func(corr time.Duration) float64 {
		cfg := cluster.Dirac(1, 1)
		cfg.Monitor = true
		cfg.CUDA = ipmcuda.Options{KernelTiming: true, EventOverheadCorrection: corr}
		cfg.CUDAProfile = true
		res, err := cluster.Run(cfg, func(env *cluster.Env) {
			if err := scan.Run(env); err != nil {
				panic(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		profiler := res.Profilers[0].TotalKernelTime()
		var ipmTotal time.Duration
		for _, ft := range res.Profile.FuncTotals() {
			if ft.Name == ipm.ExecStreamName(0) {
				ipmTotal = ft.Stats.Total
			}
		}
		d := 100 * (float64(ipmTotal) - float64(profiler)) / float64(profiler)
		if d < 0 {
			d = -d
		}
		return d
	}
	var before, after float64
	for i := 0; i < b.N; i++ {
		before = run(0)
		// Correct for dispatch gap + one event record (see gpusim docs).
		after = run(perfmodel.TeslaC2050().KernelDispatch + perfmodel.TeslaC2050().EventRecordCost)
	}
	b.ReportMetric(before, "uncorrected-diff-%")
	b.ReportMetric(after, "corrected-diff-%")
}

// BenchmarkAblationHostIdle measures the monitoring-cost delta of the
// host-idle feature (one extra StreamSynchronize per blocking transfer).
func BenchmarkAblationHostIdle(b *testing.B) {
	var extra float64
	for i := 0; i < b.N; i++ {
		off := runMonitoredChurn(b, ipmcuda.Options{KernelTiming: true})
		on := runMonitoredChurn(b, ipmcuda.Options{KernelTiming: true, HostIdle: true})
		extra = 100 * (float64(on) - float64(off)) / float64(off)
	}
	b.ReportMetric(extra, "host-idle-extra-%")
}

// BenchmarkAblationKTTSize measures timed-kernel coverage under KTT
// capacity pressure: many kernels in flight with a tiny table.
func BenchmarkAblationKTTSize(b *testing.B) {
	run := func(size int) float64 {
		cfg := cluster.Dirac(1, 1)
		cfg.Monitor = true
		cfg.CUDA = ipmcuda.Options{KernelTiming: true, KTTSize: size}
		burst := func(env *cluster.Env) {
			d, _ := env.CUDA.Malloc(4096)
			fn := &cudart.Func{Name: "burst", FixedCost: perfmodel.KernelCost{Fixed: time.Millisecond}}
			s, _ := env.CUDA.StreamCreate()
			for i := 0; i < 64; i++ {
				env.CUDA.LaunchKernel(fn, cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, s)
			}
			env.CUDA.ThreadSynchronize()
			buf := make([]byte, 4096)
			env.CUDA.Memcpy(cudart.HostPtr(buf), cudart.DevicePtr(d), 4096, cudart.MemcpyDeviceToHost)
		}
		res, err := cluster.Run(cfg, burst)
		if err != nil {
			b.Fatal(err)
		}
		var timed int64
		for _, ft := range res.Profile.FuncTotals() {
			if ft.Name == ipm.ExecStreamName(1) {
				timed = ft.Stats.Count
			}
		}
		return 100 * float64(timed) / 64
	}
	var small, large float64
	for i := 0; i < b.N; i++ {
		small = run(16)
		large = run(1024)
	}
	b.ReportMetric(small, "coverage-ktt16-%")
	b.ReportMetric(large, "coverage-ktt1024-%")
}

// A benchCase is one variant of a benchmark: its b.Run name and a
// constructor for the op one iteration runs. alloc_test.go pins what
// each op allocates.
type benchCase struct {
	name  string
	newOp func(tb testing.TB) func()
}

func runCases(b *testing.B, cases []benchCase) {
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { alloctest.Bench(b, c.newOp(b)) })
	}
}

// hashTableCases are BenchmarkAblationHashTable's variants: the
// wrapper's update pattern over 256 resident signatures, in the fixed
// open-addressing table and in a plain Go map.
var hashTableCases = []benchCase{
	{"open-addressing", func(testing.TB) func() {
		sigs, obs := ablationSigs()
		t := ipm.NewTable(ipm.DefaultTableSize)
		i := 0
		return warmed(func() {
			t.Update(sigs[i&255], obs)
			i++
		})
	}},
	{"go-map", func(testing.TB) func() {
		sigs, obs := ablationSigs()
		m := make(map[ipm.Sig]*ipm.Stats)
		i := 0
		return warmed(func() {
			sig := sigs[i&255]
			if s, ok := m[sig]; ok {
				s.Merge(obs)
			} else {
				c := obs
				m[sig] = &c
			}
			i++
		})
	}},
}

// ablationSigs returns the 256 signatures the ablation cycles over and the
// observation it records.
func ablationSigs() ([]ipm.Sig, ipm.Stats) {
	sigs := make([]ipm.Sig, 256)
	for i := range sigs {
		sigs[i] = ipm.Sig{Name: "cudaMemcpy(D2H)", Bytes: int64(i * 4096)}
	}
	return sigs, ipm.Stats{Count: 1, Total: time.Microsecond, Min: time.Microsecond, Max: time.Microsecond}
}

// warmed runs an ablation op once per signature, so every one is
// resident, and returns it.
func warmed(op func()) func() {
	for range 256 {
		op()
	}
	return op
}

// BenchmarkAblationHashTable compares the fixed open-addressing table
// against a plain Go map under the wrapper's update pattern (see also the
// micro-benchmarks in internal/ipm).
func BenchmarkAblationHashTable(b *testing.B) { runCases(b, hashTableCases) }

// observeOp records one event on a fresh monitor, with a telemetry
// recorder attached when traced is set.
func observeOp(traced bool) func(testing.TB) func() {
	return func(testing.TB) func() {
		m := ipm.NewMonitor(0, "host", "bench", func() time.Duration { return 0 }, 1024)
		if traced {
			m.AttachTelemetry(telemetry.NewRecorder(1 << 16))
		}
		ref := ipm.NewSigRef("cudaMemcpy(D2H)")
		return func() { m.ObserveRef(ref, 1<<20, time.Microsecond) }
	}
}

// observeTelemetryCases are BenchmarkObserveTelemetry's variants.
var observeTelemetryCases = []benchCase{
	{"disabled", observeOp(false)},
	{"enabled", observeOp(true)},
}

// BenchmarkObserveTelemetry measures the monitored hot path with the
// telemetry layer absent and attached. The disabled variant must match
// the sigref path of BenchmarkObserveHot (internal/ipm) — telemetry-off
// costs one untaken branch, no allocations.
func BenchmarkObserveTelemetry(b *testing.B) { runCases(b, observeTelemetryCases) }

// fig8Op runs one fig8 quick ensemble (24 trials) through the bounded
// worker pool under o.
func fig8Op(o experiments.Options) func(testing.TB) func() {
	o.Quick, o.Seed = true, 2011
	return func(tb testing.TB) func() {
		return func() {
			if _, err := experiments.Fig8(o); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// ensembleCases are BenchmarkEnsembleParallel's variants.
func ensembleCases() []benchCase {
	var cases []benchCase
	for _, j := range []int{1, 4} {
		cases = append(cases,
			benchCase{fmt.Sprintf("j%d", j), fig8Op(experiments.Options{Workers: j})},
			// The driver command-queue layer between the runtime and the
			// device: the delta prices the queue's batching and
			// submit-stall accounting.
			benchCase{fmt.Sprintf("queue-j%d", j), fig8Op(experiments.Options{Workers: j, Queue: true})})
	}
	// Each registered device backend: the delta prices the power model's
	// per-observation energy folds plus the backend's own machine balance
	// (the A100 finishes kernels faster, so its trials simulate fewer
	// virtual-time events).
	for _, d := range devmodel.List() {
		cases = append(cases, benchCase{"device-" + d.Name + "-j4", fig8Op(experiments.Options{Workers: 4, Device: d})})
	}
	return cases
}

// BenchmarkEnsembleParallel measures the fig8 quick ensemble at 1 and 4
// workers. On a multi-core host the j4 variant approaches a 4x speedup;
// the trials are fully independent simulations, so the pool scales until
// it runs out of CPUs.
func BenchmarkEnsembleParallel(b *testing.B) { runCases(b, ensembleCases()) }
