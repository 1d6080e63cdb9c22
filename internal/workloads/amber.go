package workloads

import (
	"fmt"
	"time"

	"ipmgo/internal/cluster"
	"ipmgo/internal/cudart"
	"ipmgo/internal/cufft"
	"ipmgo/internal/mpisim"
	"ipmgo/internal/perfmodel"
)

// AmberConfig parameterises the Amber PMEMD model (paper Section IV-E,
// Fig. 11): the multi-GPU CUDA version of the molecular dynamics engine
// running the JAC/DHFR benchmark (23,558 atoms) for 10,000 timesteps on
// 16 nodes.
//
// Calibration targets from the published profile (16 ranks, wallclock
// 45.78 s): ~12 kernel launches per step per rank across 39 distinct
// kernels; GPU utilisation 35.96% of wallclock dominated by
// CalculatePMEOrthogonalNonbondForces (37% of GPU time), ReduceForces
// (18%), PMEShake (10%), ClearForces (8%) and PMEUpdate (7%); 22.5% of
// wallclock in cudaThreadSynchronize; host idle near zero despite
// synchronous transfers (transfers are issued after synchronisation
// points); cudaGetDeviceCount visible because the code re-queries the
// runtime at startup; ReduceForces/ClearForces imbalanced up to ~1.55x
// max/avg across ranks while PMEShake/PMEUpdate stay balanced.
type AmberConfig struct {
	// Steps is the number of MD timesteps (paper: 10000; tests use less).
	Steps int
}

// DefaultAmber returns the paper's run length.
func DefaultAmber() AmberConfig { return AmberConfig{Steps: 10000} }

// AmberRuntimeOptions returns the CUDA runtime options Amber's profile
// implies: the repeated cudaGetDeviceCount calls each take ~0.52 s
// (16.72 s over 32 calls), a driver-reinitialisation quirk of this
// pre-release code.
func AmberRuntimeOptions() cudart.Options {
	return cudart.Options{DeviceQueryCost: 520 * time.Millisecond}
}

// amberKernelMix is the per-step launch mix. Durations are per launch and
// sum (with the "other" rotation below) to ~1.645 ms of GPU time per step
// — 35.96% of the 4.58 ms step time.
var amberKernelMix = []struct {
	name      string
	dur       time.Duration
	launches  int
	imbalance bool // scaled by the per-rank imbalance factor
}{
	{"CalculatePMEOrthogonalNonbondForces", 609 * time.Microsecond, 1, false},
	{"ReduceForces", 148 * time.Microsecond, 2, true},
	{"PMEShake", 165 * time.Microsecond, 1, false},
	{"ClearForces", 66 * time.Microsecond, 2, true},
	{"PMEUpdate", 115 * time.Microsecond, 1, false},
}

// amberOtherKernels are the long tail: 34 further kernels contributing
// ~20% of GPU time, launched in rotation (4 per step).
var amberOtherKernels = func() []string {
	names := []string{
		"PMEForwardFFT", "PMEBackwardFFT", "PMEFillCharges", "PMEGradSum",
		"PMEReduceChargeGrid", "PMEClampedSplines", "CalculateGBBornRadii",
		"CalculateGBNonbondEnergy1", "CalculateGBNonbondEnergy2",
		"CalculateLocalForces", "CalculateCharmmForces", "CalculateNMRForces",
		"UpdateMidpoint", "KineticEnergy", "ScaledMD", "RandomVelocities",
		"RecenterMolecule", "ClearVelocities", "ApplyConstraints",
		"BuildNeighborList", "SortAtoms", "RadixSortBlocks", "ScanExclusive",
		"ReorderAtoms", "ImageAtoms", "LocalToGlobal", "GlobalToLocal",
		"TransposeForces", "AccumulateEnergies", "VirialSum",
		"PressureScale", "BerendsenThermostat", "LangevinSetup", "NTPMolecules",
	}
	return names
}()

// amberImbalance returns the per-rank scale factor for the imbalanced
// kernels: linear from 0.45 to 1.55 across ranks, giving max/avg ~1.55.
func amberImbalance(rank, size int) float64 {
	if size <= 1 {
		return 1
	}
	return 0.45 + 1.10*float64(rank)/float64(size-1)
}

// Amber runs the PMEMD model in the environment.
func Amber(env *cluster.Env, cfg AmberConfig) error {
	if cfg.Steps <= 0 {
		return fmt.Errorf("workloads: amber: %d steps", cfg.Steps)
	}
	imb := amberImbalance(env.Rank, env.Size)

	// Startup: the code queries the runtime (expensively, per the paper's
	// profile) and broadcasts the topology and parameters.
	for i := 0; i < 2; i++ {
		if _, err := env.CUDA.GetDeviceCount(); err != nil {
			return err
		}
	}
	for i := 0; i < 31; i++ {
		if err := env.MPI.Bcast(unread(64<<10), 0); err != nil {
			return err
		}
	}

	// Device state: coordinates, forces, PME charge grid.
	const atomBytes = 23558 * 3 * 8
	dCrd, err := env.CUDA.Malloc(atomBytes)
	if err != nil {
		return err
	}
	dFrc, err := env.CUDA.Malloc(atomBytes)
	if err != nil {
		return err
	}
	var plan cufft.Plan
	if env.Rank == 0 {
		// The PME reciprocal-space master uses CUFFT.
		if plan, err = env.FFT.Plan2d(64, 64); err != nil {
			return err
		}
	}
	dGrid, err := env.CUDA.Malloc(64 * 64 * 16)
	if err != nil {
		return err
	}

	launch := func(name string, d time.Duration) error {
		fn := &cudart.Func{Name: name, FixedCost: perfmodel.KernelCost{Fixed: d}}
		if err := env.CUDA.ConfigureCall(cudart.Dim3{X: 92}, cudart.Dim3{X: 256}, 0, 0); err != nil {
			return err
		}
		if err := env.CUDA.SetupArgument(dCrd, 8, 0); err != nil {
			return err
		}
		if err := env.CUDA.SetupArgument(dFrc, 8, 8); err != nil {
			return err
		}
		if err := env.CUDA.SetupArgument(len(name), 8, 16); err != nil {
			return err
		}
		return env.CUDA.Launch(fn)
	}

	otherIdx := 0
	for step := 0; step < cfg.Steps; step++ {
		// Per-step constants to the GPU (box parameters etc.). The
		// pattern averages 1.75 calls/step, matching the published count.
		nSym := 2
		if step%4 == 3 {
			nSym = 1
		}
		for i := 0; i < nSym; i++ {
			if err := env.CUDA.MemcpyToSymbol("cSim", make([]byte, 640)); err != nil {
				return err
			}
		}

		// Force kernels.
		for _, k := range amberKernelMix {
			d := k.dur
			if k.imbalance {
				d = time.Duration(float64(d) * imb)
			}
			for l := 0; l < k.launches; l++ {
				if err := launch(k.name, d); err != nil {
					return err
				}
			}
		}
		// Long-tail kernels, 5 per step in rotation (12 launches/step
		// total, matching the published cudaLaunch count).
		for l := 0; l < 5; l++ {
			name := amberOtherKernels[otherIdx%len(amberOtherKernels)]
			otherIdx++
			if err := launch(name, 66*time.Microsecond); err != nil {
				return err
			}
		}
		// PME reciprocal space on the master rank.
		if env.Rank == 0 && step%115 == 0 {
			if err := env.FFT.ExecZ2Z(plan, dGrid, dGrid, cufft.Forward); err != nil {
				return err
			}
		}

		// Host-side bookkeeping overlapping the GPU, then the hard
		// synchronisation the profile shows 22.5% of wallclock in.
		env.Compute(600 * time.Microsecond)
		for i := 0; i < 7; i++ {
			if err := env.CUDA.ThreadSynchronize(); err != nil {
				return err
			}
		}
		if err := env.CUDA.ThreadSynchronize(); err != nil {
			return err
		}

		// Synchronous readbacks of energies and forces (small; the GPU
		// is already drained, so host idle stays near zero).
		for i := 0; i < 2; i++ {
			if err := env.CUDA.Memcpy(cudart.HostPtr(nil), cudart.DevicePtr(dFrc), 16<<10, cudart.MemcpyDeviceToHost); err != nil {
				return err
			}
		}

		// Error checks sprinkled through the step (10.67/step published).
		nErr := 10
		if step%3 == 0 {
			nErr = 12
		}
		for i := 0; i < nErr; i++ {
			if err := env.CUDA.GetLastError(); err != nil {
				return err
			}
		}

		// Serial host integration work.
		env.Compute(2500 * time.Microsecond)

		// MPI: force reduction every 16 steps, energy reduce offset by 8.
		if step%16 == 0 {
			recv := make([]byte, 8)
			if err := env.MPI.Allreduce(mpisim.Float64Bytes([]float64{1}), recv, mpisim.OpSum); err != nil {
				return err
			}
		}
		if step%16 == 8 {
			recv := make([]byte, 8)
			if err := env.MPI.Reduce(mpisim.Float64Bytes([]float64{1}), recv, mpisim.OpSum, 0); err != nil {
				return err
			}
		}
		// Periodic restart: rank 0 writes the coordinates to the shared
		// filesystem (monitored by IPM's I/O layer) and broadcasts the
		// go-ahead.
		if step > 0 && step%500 == 0 {
			if env.Rank == 0 {
				f, err := env.FS.Open("/scratch/jac.rst", true)
				if err != nil {
					return err
				}
				if _, err := f.Write(make([]byte, atomBytes)); err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
			if err := env.MPI.Bcast(unread(1<<20), 0); err != nil {
				return err
			}
		}
	}

	// Final statistics exchange.
	all := make([]byte, env.Size*8)
	if err := env.MPI.Allgather(mpisim.Float64Bytes([]float64{1}), all); err != nil {
		return err
	}
	if env.Rank == 0 {
		if err := env.FFT.Destroy(plan); err != nil {
			return err
		}
	}
	for _, p := range []cudart.DevPtr{dCrd, dFrc, dGrid} {
		if err := env.CUDA.Free(p); err != nil {
			return err
		}
	}
	return nil
}
