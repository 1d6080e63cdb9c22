package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"ipmgo/internal/cluster"
	"ipmgo/internal/cudart"
	"ipmgo/internal/mpisim"
	"ipmgo/internal/perfmodel"
)

// HPLConfig parameterises the CUDA-accelerated High Performance Linpack
// model (Fatica-style HPL, the paper's Figs. 8 and 9).
//
// The model follows the structure of the real code: a right-looking LU
// factorisation where each iteration factorises a panel on the CPU,
// broadcasts it, and updates the trailing submatrix on the GPU with the
// CUBLAS kernels the paper's Fig. 9 lists (dgemm_nn_e_kernel,
// dgemm_nt_tex_kernel, dtrsm_gpu_64_mm, transpose). Transfers are
// asynchronous on a dedicated stream (so @CUDA_HOST_IDLE stays near zero)
// and the code synchronises manually through the CUDA event API, which is
// where its residual 2-5 s per rank of cudaEventSynchronize time comes
// from. Kernel durations shrink as the trailing matrix shrinks.
type HPLConfig struct {
	// Iterations is the number of panel steps (default 60).
	Iterations int
	// Scale multiplies every duration and byte count; 1.0 reproduces the
	// paper's ~126 s run on 16 nodes, tests use small values.
	Scale float64
	// SyncTransfers switches the trailing-update transfers to synchronous
	// cudaMemcpy — the untuned variant whose host idle time IPM would
	// flag (kept for the overlap example and ablations).
	SyncTransfers bool
}

// DefaultHPL returns the configuration calibrated against the paper's
// 16-node runs (mean runtime 126.40 s).
func DefaultHPL() HPLConfig { return HPLConfig{Iterations: 60, Scale: 1.0} }

// hplKernels are the four GPU kernels of CUDA HPL with their peak
// per-iteration durations; nn/nt shrink quadratically with the remaining
// fraction, trsm/transpose linearly.
var hplKernels = []struct {
	name      string
	peak      time.Duration
	quadratic bool
}{
	{"dgemm_nn_e_kernel", 4199 * time.Millisecond, true},
	{"dgemm_nt_tex_kernel", 1101 * time.Millisecond, true},
	{"dtrsm_gpu_64_mm", 295 * time.Millisecond, false},
	{"transpose", 147 * time.Millisecond, false},
}

// HPL runs the Linpack model in the environment.
func HPL(env *cluster.Env, cfg HPLConfig) error {
	if cfg.Iterations <= 0 {
		return fmt.Errorf("workloads: hpl: %d iterations", cfg.Iterations)
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * cfg.Scale) }

	stream, err := env.CUDA.StreamCreate()
	if err != nil {
		return err
	}
	update, err := env.CUDA.EventCreate()
	if err != nil {
		return err
	}
	const panelBytes = 20 << 20
	dPanel, err := env.CUDA.Malloc(panelBytes)
	if err != nil {
		return err
	}
	dOut, err := env.CUDA.Malloc(panelBytes / 2)
	if err != nil {
		return err
	}

	// Per-iteration buffers and launch descriptors are hoisted out of the
	// loop: Bcast/Allreduce copy or consume their arguments before any
	// rank returns from the collective, and LaunchKernel reads the Func at
	// launch time, so reuse is safe and keeps the panel loop off the heap.
	// The panel's bytes are never read, so it comes from unread: every
	// rank's slice starts at the same shared byte and Bcast, which skips
	// self-copies, copies nothing — unless Scale > 1 outgrows the shared
	// payload and each rank gets its own buffer.
	kernFns := make([]*cudart.Func, len(hplKernels))
	for ki, k := range hplKernels {
		kernFns[ki] = &cudart.Func{Name: k.name}
	}
	panelBuf := unread(int(4<<20*cfg.Scale) + 1)
	pivot := mpisim.Float64Bytes([]float64{0})
	recv := make([]byte, 8)

	for i := 0; i < cfg.Iterations; i++ {
		f := 1 - float64(i)/float64(cfg.Iterations)
		f2 := f * f

		// Stage the panel on the GPU and run the trailing update
		// asynchronously.
		pb := int64(float64(panelBytes) * f * cfg.Scale)
		if cfg.SyncTransfers {
			if err := env.CUDA.Memcpy(cudart.DevicePtr(dPanel), cudart.HostPtr(nil), pb, cudart.MemcpyHostToDevice); err != nil {
				return err
			}
		} else if err := env.CUDA.MemcpyAsync(cudart.DevicePtr(dPanel), cudart.HostPtr(nil), pb, cudart.MemcpyHostToDevice, stream); err != nil {
			return err
		}

		var gpuWork time.Duration
		for ki, k := range hplKernels {
			frac := f
			if k.quadratic {
				frac = f2
			}
			// Kernel times carry a whisper of per-launch variation (clock
			// throttling, memory layout), so the cross-rank balance is
			// tight but not exactly 1.0.
			d := time.Duration(float64(scale(k.peak)) * frac * (1 + (env.Noise.Factor()-1)*0.1))
			if d < time.Microsecond {
				d = time.Microsecond
			}
			gpuWork += d
			fn := kernFns[ki]
			fn.FixedCost = perfmodel.KernelCost{Fixed: d}
			if err := env.CUDA.LaunchKernel(fn, cudart.Dim3{X: 512}, cudart.Dim3{X: 128}, stream); err != nil {
				return err
			}
		}
		if cfg.SyncTransfers {
			if err := env.CUDA.Memcpy(cudart.HostPtr(nil), cudart.DevicePtr(dOut), pb/2, cudart.MemcpyDeviceToHost); err != nil {
				return err
			}
		} else if err := env.CUDA.MemcpyAsync(cudart.HostPtr(nil), cudart.DevicePtr(dOut), pb/2, cudart.MemcpyDeviceToHost, stream); err != nil {
			return err
		}
		if err := env.CUDA.EventRecord(update, stream); err != nil {
			return err
		}

		// CPU panel factorisation overlaps the GPU update; it is tuned to
		// ~97% of the GPU time, so cudaEventSynchronize absorbs the rest
		// (2-5 s per rank over the full run, as the paper reports).
		env.Compute(time.Duration(0.97 * float64(gpuWork)))

		// Manual synchronisation through the event API, as CUDA HPL does.
		if err := env.CUDA.EventSynchronize(update); err != nil {
			return err
		}

		// Broadcast the factored panel (rotating root) and agree on the
		// pivot.
		root := i % env.Size
		if err := env.MPI.Bcast(panelBuf[:int(4<<20*f*cfg.Scale)+1], root); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(pivot, math.Float64bits(f))
		if err := env.MPI.Allreduce(pivot, recv, mpisim.OpMax); err != nil {
			return err
		}
	}

	// Final residual check: one blocking readback and a reduction.
	if err := env.CUDA.Memcpy(cudart.HostPtr(nil), cudart.DevicePtr(dOut), 1<<20, cudart.MemcpyDeviceToHost); err != nil {
		return err
	}
	if err := env.MPI.Allreduce(mpisim.Float64Bytes([]float64{1}), recv, mpisim.OpSum); err != nil {
		return err
	}
	if err := env.CUDA.Free(dPanel); err != nil {
		return err
	}
	if err := env.CUDA.Free(dOut); err != nil {
		return err
	}
	if err := env.CUDA.EventDestroy(update); err != nil {
		return err
	}
	return env.CUDA.StreamDestroy(stream)
}
