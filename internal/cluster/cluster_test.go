package cluster

import (
	"testing"
	"time"

	"ipmgo/internal/cudart"
	"ipmgo/internal/des"
	"ipmgo/internal/gpusim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmcuda"
	"ipmgo/internal/mpisim"
	"ipmgo/internal/perfmodel"
)

// miniApp launches a kernel, copies data back and reduces across ranks.
func miniApp(env *Env) {
	d, err := env.CUDA.Malloc(64)
	if err != nil {
		panic(err)
	}
	k := &cudart.Func{Name: "mini", FixedCost: perfmodel.KernelCost{Fixed: 5 * time.Millisecond}}
	if err := env.CUDA.LaunchKernel(k, cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0); err != nil {
		panic(err)
	}
	buf := make([]byte, 64)
	if err := env.CUDA.Memcpy(cudart.HostPtr(buf), cudart.DevicePtr(d), 64, cudart.MemcpyDeviceToHost); err != nil {
		panic(err)
	}
	recv := make([]byte, 8)
	if err := env.MPI.Allreduce(mpisim.Float64Bytes([]float64{1}), recv, mpisim.OpSum); err != nil {
		panic(err)
	}
	if got := mpisim.BytesFloat64(recv)[0]; got != float64(env.Size) {
		panic("allreduce wrong")
	}
	env.Compute(time.Millisecond)
}

func TestMonitoredRunProducesProfile(t *testing.T) {
	cfg := Dirac(2, 2)
	cfg.Monitor = true
	cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	cfg.Command = "./mini"
	res, err := Run(cfg, miniApp)
	if err != nil {
		t.Fatal(err)
	}
	jp := res.Profile
	if jp == nil {
		t.Fatal("no profile")
	}
	if jp.NTasks() != 4 || jp.Nodes != 2 {
		t.Errorf("layout = %d tasks on %d nodes", jp.NTasks(), jp.Nodes)
	}
	if jp.DomainSpread(ipm.DomainMPI).Total == 0 {
		t.Error("no MPI time recorded")
	}
	if jp.DomainSpread(ipm.DomainCUDA).Total == 0 {
		t.Error("no CUDA time recorded")
	}
	if jp.GPUPercent() <= 0 {
		t.Error("no GPU kernel time recorded")
	}
	if jp.Ranks[0].Host != "dirac1" || jp.Ranks[3].Host != "dirac2" {
		t.Errorf("hosts: %s %s", jp.Ranks[0].Host, jp.Ranks[3].Host)
	}
}

func TestUnmonitoredRunHasNoProfile(t *testing.T) {
	res, err := Run(Dirac(1, 2), miniApp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Error("unexpected profile")
	}
	if res.Wallclock <= 0 {
		t.Error("no wallclock")
	}
}

func TestCUDAProfileAttaches(t *testing.T) {
	cfg := Dirac(2, 1)
	cfg.CUDAProfile = true
	res, err := Run(cfg, miniApp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profilers) != 2 {
		t.Fatalf("profilers = %d", len(res.Profilers))
	}
	for i, p := range res.Profilers {
		if p.Invocations() != 1 {
			t.Errorf("node %d kernel invocations = %d, want 1", i, p.Invocations())
		}
	}
}

func TestSharedGPUSlowsKernels(t *testing.T) {
	// Two ranks sharing one GPU with NULL-stream kernels must serialise;
	// one rank per node with the same work finishes faster in wallclock
	// per kernel count.
	app := func(env *Env) {
		k := &cudart.Func{Name: "busy", FixedCost: perfmodel.KernelCost{Fixed: 50 * time.Millisecond}}
		for i := 0; i < 4; i++ {
			env.CUDA.LaunchKernel(k, cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0)
		}
		env.CUDA.ThreadSynchronize()
	}
	shared, err := Run(Dirac(1, 2), app)
	if err != nil {
		t.Fatal(err)
	}
	exclusive, err := Run(Dirac(2, 1), app)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Wallclock <= exclusive.Wallclock {
		t.Errorf("shared GPU (%v) should be slower than exclusive (%v)", shared.Wallclock, exclusive.Wallclock)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := Dirac(2, 2)
	cfg.Monitor = true
	cfg.NoiseAmp = 0.01
	cfg.NoiseSeed = 7
	a, err := Run(cfg, miniApp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, miniApp)
	if err != nil {
		t.Fatal(err)
	}
	if a.Wallclock != b.Wallclock {
		t.Errorf("nondeterministic: %v vs %v", a.Wallclock, b.Wallclock)
	}
	cfg.NoiseSeed = 8
	c, err := Run(cfg, miniApp)
	if err != nil {
		t.Fatal(err)
	}
	if c.Wallclock == a.Wallclock {
		t.Error("different seed produced identical run (noise inactive?)")
	}
}

func TestSharedFilesystemMonitored(t *testing.T) {
	cfg := Dirac(1, 2)
	cfg.Monitor = true
	res, err := Run(cfg, func(env *Env) {
		if env.Rank == 0 {
			f, err := env.FS.Open("/scratch/ckpt", true)
			if err != nil {
				panic(err)
			}
			if _, err := f.Write(make([]byte, 1<<20)); err != nil {
				panic(err)
			}
			if err := f.Close(); err != nil {
				panic(err)
			}
		}
		env.MPI.Barrier()
		if env.Rank == 1 {
			f, err := env.FS.Open("/scratch/ckpt", false)
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 1<<20)
			if n, err := f.Read(buf); err != nil || n != 1<<20 {
				panic("short read")
			}
			f.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 wrote, rank 1 read; both monitored.
	if got := res.Profile.Ranks[0].FuncTime("fwrite"); got == 0 {
		t.Error("fwrite not recorded on rank 0")
	}
	if got := res.Profile.Ranks[1].FuncTime("fread"); got == 0 {
		t.Error("fread not recorded on rank 1")
	}
	if got := res.Profile.FuncSpread("fopen").Total; got == 0 {
		t.Error("fopen not recorded")
	}
}

func TestCountersAttach(t *testing.T) {
	cfg := Dirac(2, 1)
	cfg.Counters = true
	res, err := Run(cfg, miniApp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counters) != 2 {
		t.Fatalf("counters = %d components", len(res.Counters))
	}
	for i, c := range res.Counters {
		if len(c.Samples()) != 1 {
			t.Errorf("node %d counter samples = %d, want 1", i, len(c.Samples()))
		}
	}
}

func TestHorizonExceeded(t *testing.T) {
	cfg := Dirac(1, 1)
	cfg.Horizon = time.Millisecond
	_, err := Run(cfg, func(env *Env) { env.Proc.Sleep(time.Hour) })
	if err == nil {
		t.Fatal("horizon violation not reported")
	}
}

func TestParallelRegionUnmonitored(t *testing.T) {
	res, err := Run(Dirac(1, 1), func(env *Env) {
		stats, err := env.Parallel("r", 4, func(tid int, p *des.Proc) {
			p.Sleep(time.Millisecond)
		})
		if err != nil || stats.Elapsed != time.Millisecond {
			panic("unmonitored region wrong")
		}
		if _, err := env.ParallelFor("l", 2, 10, func(i int) time.Duration { return time.Microsecond }); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Error("unexpected profile")
	}
}

func TestBadLayoutRejected(t *testing.T) {
	if _, err := Run(Dirac(0, 1), miniApp); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := Run(Dirac(1, 0), miniApp); err == nil {
		t.Error("zero ranks accepted")
	}
}

// TestTrailingDeviceWorkSetsWallclock ends an unmonitored application
// with device work nobody waits on — an asynchronous kernel, alone or
// with an event record behind it — and checks the job's wallclock still
// runs to the end of that work, not to the host's return.
func TestTrailingDeviceWorkSetsWallclock(t *testing.T) {
	for _, record := range []bool{false, true} {
		cfg := Dirac(2, 1)
		devs := make([]*gpusim.Device, 2)
		returned := make([]time.Duration, 2)
		res, err := Run(cfg, func(env *Env) {
			k := &cudart.Func{Name: "tail", FixedCost: perfmodel.KernelCost{Fixed: 50 * time.Millisecond}}
			if err := env.CUDA.LaunchKernel(k, cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0); err != nil {
				panic(err)
			}
			if record {
				ev, err := env.CUDA.EventCreate()
				if err != nil {
					panic(err)
				}
				if err := env.CUDA.EventRecord(ev, 0); err != nil {
					panic(err)
				}
			}
			devs[env.Rank] = env.Dev
			returned[env.Rank] = env.Proc.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		want := max(devs[0].LastOp().End, devs[1].LastOp().End)
		if res.Wallclock != want || want <= max(returned[0], returned[1]) {
			t.Errorf("record %v: wallclock %v, want the last device op's end %v (hosts returned by %v)",
				record, res.Wallclock, want, max(returned[0], returned[1]))
		}
	}
}
