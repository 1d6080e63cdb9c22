package workloads

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"ipmgo/internal/cluster"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmcuda"
)

func monitoredCfg(nodes, rpn int) cluster.Config {
	cfg := cluster.Dirac(nodes, rpn)
	cfg.Monitor = true
	cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	return cfg
}

func funcStats(jp *ipm.JobProfile, name string) ipm.Stats {
	for _, ft := range jp.FuncTotals() {
		if ft.Name == name {
			return ft.Stats
		}
	}
	return ipm.Stats{}
}

func TestSquareReproducesFig456Semantics(t *testing.T) {
	cfg := monitoredCfg(1, 1)
	cfg.Command = "./cuda.ipm"
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		if err := Square(env, DefaultSquare()); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	jp := res.Profile
	// cudaMalloc carries context init (~1.29 s, Figs. 5/6).
	if s := funcStats(jp, "cudaMalloc"); s.Total < time.Second {
		t.Errorf("cudaMalloc = %v, want >= 1s (context init)", s.Total)
	}
	// Kernel ~1.15 s on stream 0.
	exec := funcStats(jp, ipm.ExecStreamName(0))
	if exec.Count != 1 || exec.Total < 1100*time.Millisecond || exec.Total > 1250*time.Millisecond {
		t.Errorf("@CUDA_EXEC_STRM00 = %+v, want ~1.15s", exec)
	}
	// Host idle absorbs the kernel wait; D2H transfer itself is small.
	idle := funcStats(jp, ipm.HostIdleName)
	if idle.Total < time.Second {
		t.Errorf("@CUDA_HOST_IDLE = %v, want ~1.15s", idle.Total)
	}
	if d2h := funcStats(jp, "cudaMemcpy(D2H)"); d2h.Total > 50*time.Millisecond {
		t.Errorf("cudaMemcpy(D2H) = %v, want small after idle separation", d2h.Total)
	}
	if s := funcStats(jp, "cudaSetupArgument"); s.Count != 2 {
		t.Errorf("cudaSetupArgument count = %d, want 2", s.Count)
	}
}

func TestSquareFunctional(t *testing.T) {
	cfg := cluster.Dirac(1, 1)
	if _, err := cluster.Run(cfg, func(env *cluster.Env) {
		sq := DefaultSquare()
		sq.N = 1000
		sq.Functional = true
		if err := Square(env, sq); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSDKBenchmarkTotalsMatchTable(t *testing.T) {
	for _, b := range SDKSuite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cfg := cluster.Dirac(1, 1)
			cfg.CUDAProfile = true
			res, err := cluster.Run(cfg, func(env *cluster.Env) {
				if err := b.Run(env); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			prof := res.Profilers[0]
			if prof.Invocations() != b.Invocations {
				t.Errorf("invocations = %d, want %d", prof.Invocations(), b.Invocations)
			}
			got := prof.TotalKernelTime()
			diff := float64(got-b.TotalGPU) / float64(b.TotalGPU)
			if diff < -0.001 || diff > 0.001 {
				t.Errorf("total GPU = %v, want %v (diff %.4f)", got, b.TotalGPU, diff)
			}
		})
	}
}

func TestSDKMonitoredKernelTimingAboveProfiler(t *testing.T) {
	b := SDKSuite()[7] // scan: the shortest kernels, largest relative error
	cfg := monitoredCfg(1, 1)
	cfg.CUDAProfile = true
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		if err := b.Run(env); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	profiler := res.Profilers[0].TotalKernelTime()
	var ipmTotal time.Duration
	var ipmCount int64
	for _, ft := range res.Profile.FuncTotals() {
		if ft.Name == ipm.ExecStreamName(0) {
			ipmTotal, ipmCount = ft.Stats.Total, ft.Stats.Count
		}
	}
	if ipmCount != int64(b.Invocations) {
		t.Fatalf("IPM timed %d kernels, want %d", ipmCount, b.Invocations)
	}
	if ipmTotal <= profiler {
		t.Errorf("IPM %v should exceed profiler %v (event overhead)", ipmTotal, profiler)
	}
	rel := float64(ipmTotal-profiler) / float64(profiler)
	if rel > 0.03 {
		t.Errorf("relative error %.4f too large", rel)
	}
}

func TestHPLShape(t *testing.T) {
	cfg := monitoredCfg(4, 1)
	cfg.NoiseAmp = 0.03
	cfg.NoiseSeed = 1
	hpl := HPLConfig{Iterations: 12, Scale: 0.02}
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		if err := HPL(env, hpl); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	jp := res.Profile
	// All four HPL kernels appear, dgemm_nn dominating.
	nn := funcStats(jp, ipm.ExecKernelName(1, "dgemm_nn_e_kernel"))
	if nn.Count != int64(12*jp.NTasks()) {
		t.Errorf("dgemm_nn count = %d", nn.Count)
	}
	for _, k := range []string{"dgemm_nt_tex_kernel", "dtrsm_gpu_64_mm", "transpose"} {
		s := funcStats(jp, ipm.ExecKernelName(1, k))
		if s.Count == 0 {
			t.Errorf("kernel %s missing", k)
		}
		if s.Total >= nn.Total {
			t.Errorf("%s (%v) should be below dgemm_nn (%v)", k, s.Total, nn.Total)
		}
	}
	// Async transfers: near-zero host idle.
	if idle := funcStats(jp, ipm.HostIdleName); float64(idle.Total) > 0.01*float64(jp.WallclockSpread().Total) {
		t.Errorf("host idle = %v, want ~0 for async HPL", idle.Total)
	}
	// Manual event synchronisation present and a small share of wall.
	sync := funcStats(jp, "cudaEventSynchronize")
	if sync.Count == 0 {
		t.Error("no cudaEventSynchronize recorded")
	}
	wall := jp.WallclockSpread().Total
	if frac := float64(sync.Total) / float64(wall); frac > 0.15 {
		t.Errorf("eventSynchronize fraction = %.3f, want small residual", frac)
	}
}

// TestHPLScaleBeyondSharedPayload: at Scale 2 the panel (8 MB) is larger
// than the shared unread payload, so each rank broadcasts from a buffer
// of its own instead of indexing past the shared one.
func TestHPLScaleBeyondSharedPayload(t *testing.T) {
	hpl := HPLConfig{Iterations: 3, Scale: 2}
	res, err := cluster.Run(monitoredCfg(2, 1), func(env *cluster.Env) {
		if err := HPL(env, hpl); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var largest int64
	for _, e := range res.Profile.Ranks[0].Entries {
		if e.Sig.Name == "MPI_Bcast" && e.Sig.Bytes > largest {
			largest = e.Sig.Bytes
		}
	}
	if want := int64(4<<20*hpl.Scale) + 1; largest != want {
		t.Errorf("largest MPI_Bcast = %d bytes, want %d", largest, want)
	}
}

// TestConcurrentJobsShareUnreadPayload runs HPL and Amber jobs side by
// side, all broadcasting slices of the one shared unread payload. Under
// -race any write to it is a report; without it, the payload must still
// be all zeros afterwards, and twin jobs must produce the same profile.
func TestConcurrentJobsShareUnreadPayload(t *testing.T) {
	hpl := func() (*cluster.Result, error) {
		return cluster.Run(monitoredCfg(4, 1), func(env *cluster.Env) {
			if err := HPL(env, HPLConfig{Iterations: 4, Scale: 1}); err != nil {
				panic(err)
			}
		})
	}
	amber := func() (*cluster.Result, error) {
		cfg := monitoredCfg(2, 1)
		cfg.Runtime = AmberRuntimeOptions()
		return cluster.Run(cfg, func(env *cluster.Env) {
			if err := Amber(env, AmberConfig{Steps: 8}); err != nil {
				panic(err)
			}
		})
	}
	jobs := []func() (*cluster.Result, error){hpl, hpl, amber}
	results := make([]*cluster.Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job func() (*cluster.Result, error)) {
			defer wg.Done()
			results[i], errs[i] = job()
		}(i, job)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if a, b := results[0].Profile.FuncTotals(), results[1].Profile.FuncTotals(); !reflect.DeepEqual(a, b) {
		t.Error("twin HPL jobs run concurrently disagree")
	}
	for i, b := range unreadPayload {
		if b != 0 {
			t.Fatalf("unread payload written at byte %d", i)
		}
	}
}

func TestHPLSyncTransfersAblationShowsIdle(t *testing.T) {
	cfg := monitoredCfg(2, 1)
	hpl := HPLConfig{Iterations: 8, Scale: 0.02, SyncTransfers: true}
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		if err := HPL(env, hpl); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if idle := funcStats(res.Profile, ipm.HostIdleName); idle.Count == 0 {
		t.Error("sync-transfer HPL should show host idle time")
	}
}

func runParatec(t *testing.T, procs int, useCUBLAS bool) *cluster.Result {
	t.Helper()
	nodes := 4
	cfg := monitoredCfg(nodes, procs/nodes)
	cfg.LibCostOnly = true
	pc := DefaultParatec(useCUBLAS)
	pc.Iterations = 2
	pc.PlaneWaves = 80000
	pc.HostOtherPerIter = 20 * time.Second
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		if err := Paratec(env, pc); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParatecCUBLASFasterThanMKL(t *testing.T) {
	mkl := runParatec(t, 4, false)
	cub := runParatec(t, 4, true)
	if cub.Wallclock >= mkl.Wallclock {
		t.Errorf("CUBLAS (%v) should beat MKL (%v)", cub.Wallclock, mkl.Wallclock)
	}
	// Thunking: transfers dwarf the zgemm call itself.
	set := funcStats(cub.Profile, "cublasSetMatrix")
	get := funcStats(cub.Profile, "cublasGetMatrix")
	zg := funcStats(cub.Profile, "cublasZgemm")
	if set.Count == 0 || get.Count == 0 || zg.Count == 0 {
		t.Fatal("thunking call sequence missing")
	}
	if set.Total+get.Total <= zg.Total {
		t.Errorf("transfers (%v) should dwarf zgemm (%v)", set.Total+get.Total, zg.Total)
	}
}

func TestParatecGatherGrowsSuperLinearly(t *testing.T) {
	small := runParatec(t, 4, true)
	big := runParatec(t, 16, true)
	gs := funcStats(small.Profile, "MPI_Gather").Total / 4
	gb := funcStats(big.Profile, "MPI_Gather").Total / 16
	// Per-rank gather time should grow much faster than linearly in p.
	if float64(gb) < 3*float64(gs) {
		t.Errorf("per-rank gather p=16 (%v) vs p=4 (%v): want super-linear growth", gb, gs)
	}
}

// runAmber executes the Amber model for the given number of steps.
func runAmber(t *testing.T, steps int) *ipm.JobProfile {
	t.Helper()
	cfg := monitoredCfg(4, 1)
	cfg.Runtime = AmberRuntimeOptions()
	cfg.Command = "pmemd.cuda_MPI -O -i mdin -c inpcrd.equil"
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		if err := Amber(env, AmberConfig{Steps: steps}); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Profile
}

func TestAmberShape(t *testing.T) {
	jp := runAmber(t, 200)

	// Steady-state percentages: startup (context init, device queries)
	// amortises over 10000 steps in the paper's run; a short test run
	// measures the marginal per-step shares by differencing two runs.
	short := runAmber(t, 100)
	dWall := jp.WallclockSpread().Total - short.WallclockSpread().Total
	gpuOf := func(p *ipm.JobProfile) time.Duration {
		var g time.Duration
		for _, ft := range p.FuncTotals() {
			if ft.Name == ipm.ExecStreamName(0) {
				g = ft.Stats.Total
			}
		}
		return g
	}
	gpuPct := 100 * float64(gpuOf(jp)-gpuOf(short)) / float64(dWall)
	if gpuPct < 31 || gpuPct > 42 {
		t.Errorf("steady-state GPU%% = %.2f, want ~36", gpuPct)
	}
	dSync := funcStats(jp, "cudaThreadSynchronize").Total - funcStats(short, "cudaThreadSynchronize").Total
	syncPct := 100 * float64(dSync) / float64(dWall)
	if syncPct < 17 || syncPct > 28 {
		t.Errorf("steady-state threadSync%% = %.2f, want ~22.5", syncPct)
	}
	// Host idle near zero despite synchronous transfers.
	if p := jp.HostIdlePercent(); p > 0.5 {
		t.Errorf("host idle %% = %.2f, want ~0", p)
	}
	// 39 distinct Amber kernels (the CUFFT kernel is accounted to the
	// CUFFT library, as in the paper).
	kernels := make(map[string]bool)
	for _, ft := range jp.FuncTotals() {
		if n := ft.Name; len(n) > len("@CUDA_EXEC_STRM00:") && n[:15] == "@CUDA_EXEC_STRM" {
			for i := range n {
				if n[i] == ':' {
					kernels[n[i+1:]] = true
					break
				}
			}
		}
	}
	delete(kernels, "cufft_z2z_kernel")
	if len(kernels) != 39 {
		t.Errorf("distinct kernels = %d, want 39", len(kernels))
	}
	// Imbalance on ReduceForces/ClearForces, balance on PMEShake.
	rf := jp.Imbalance(ipm.ExecKernelName(0, "ReduceForces"))
	if rf < 1.3 || rf > 1.8 {
		t.Errorf("ReduceForces imbalance = %.2f, want ~1.55", rf)
	}
	if sh := jp.Imbalance(ipm.ExecKernelName(0, "PMEShake")); sh > 1.1 {
		t.Errorf("PMEShake imbalance = %.2f, want balanced", sh)
	}
	// CUFFT on rank 0 only.
	fft := funcStats(jp, "cufftExecZ2Z")
	if fft.Count == 0 {
		t.Error("no CUFFT usage")
	}
	r0 := jp.Ranks[0].FuncTime("cufftExecZ2Z")
	if r0 == 0 {
		t.Error("rank 0 has no CUFFT time")
	}
	for _, r := range jp.Ranks[1:] {
		if r.FuncTime("cufftExecZ2Z") != 0 {
			t.Errorf("rank %d unexpectedly uses CUFFT", r.Rank)
		}
	}
	// Expensive cudaGetDeviceCount (2 calls x ~0.52 s per rank).
	gdc := funcStats(jp, "cudaGetDeviceCount")
	if gdc.Count != int64(2*jp.NTasks()) || gdc.Total < time.Duration(jp.NTasks())*time.Second {
		t.Errorf("cudaGetDeviceCount = %+v", gdc)
	}
	// Call-count ratios per step: launches ~12/step, getLastError ~10.7.
	steps := float64(200 * jp.NTasks())
	if c := float64(funcStats(jp, "cudaLaunch").Count) / steps; c < 11.5 || c > 12.5 {
		t.Errorf("launches/step = %.2f, want ~12", c)
	}
	if c := float64(funcStats(jp, "cudaGetLastError").Count) / steps; c < 10 || c > 11.5 {
		t.Errorf("getLastError/step = %.2f, want ~10.7", c)
	}
	if c := float64(funcStats(jp, "cudaMemcpyToSymbol").Count) / steps; c < 1.6 || c > 1.9 {
		t.Errorf("memcpyToSymbol/step = %.2f, want ~1.75", c)
	}
}
