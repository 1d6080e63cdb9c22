package workloads

import (
	"fmt"
	"time"

	"ipmgo/internal/cluster"
	"ipmgo/internal/cublas"
	"ipmgo/internal/mpisim"
)

// ParatecConfig parameterises the PARATEC model (paper Section IV-D,
// Fig. 10): an ab initio DFT plane-wave code whose BLAS usage is dominated
// by double-complex matrix multiplies (zgemm) on tall-skinny operands
// (local plane-wave slab x band block). Linking against the thunking
// CUBLAS wrappers turns each zgemm into
// cublasSetMatrix x3 + cublasZgemm + cublasGetMatrix, whose blocking
// transfers dwarf the kernel itself — the central observation of the
// paper's PARATEC study.
//
// The model runs strong scaling on 32 nodes: per-rank slabs shrink as
// ranks are added while additional ranks share each node's single GPU, so
// the time in CUBLAS stays roughly constant; per-iteration band gathers
// funnel into single endpoints, whose contention makes MPI_Gather blow up
// at 256 processes.
//
// Absolute times are calibrated to one tenth of the paper's NERSC6-medium
// runs (see EXPERIMENTS.md); ratios and the scaling shape are the
// reproduction targets.
type ParatecConfig struct {
	// Iterations is the number of SCF iterations (default 20).
	Iterations int
	// UseCUBLAS selects thunking CUBLAS; false runs the MKL baseline
	// (host BLAS).
	UseCUBLAS bool
	// PlaneWaves is the global slab height; the per-rank zgemm m is
	// PlaneWaves/size (default 640000).
	PlaneWaves int
	// BandBlock is the zgemm n=k dimension (default 64).
	BandBlock int
	// ZgemmCalls is the number of zgemm calls per rank per iteration
	// (default 25).
	ZgemmCalls int
	// GatherBytes is the global per-iteration gather volume (default 1 MiB).
	GatherBytes int
	// HostOtherPerIter is the global per-iteration CPU time outside BLAS
	// (FFTW, potentials; default 175 s, split across ranks).
	HostOtherPerIter time.Duration
	// MKLGFlops is the per-core MKL zgemm rate (default 4 GFlop/s).
	MKLGFlops float64
}

// DefaultParatec returns the calibrated configuration.
func DefaultParatec(useCUBLAS bool) ParatecConfig {
	return ParatecConfig{
		Iterations:       20,
		UseCUBLAS:        useCUBLAS,
		PlaneWaves:       640000,
		BandBlock:        64,
		ZgemmCalls:       25,
		GatherBytes:      1 << 20,
		HostOtherPerIter: 175 * time.Second,
		MKLGFlops:        4,
	}
}

// Paratec runs the model in the environment.
func Paratec(env *cluster.Env, cfg ParatecConfig) error {
	if cfg.Iterations <= 0 {
		return fmt.Errorf("workloads: paratec: %d iterations", cfg.Iterations)
	}
	p := env.Size
	m := cfg.PlaneWaves / p
	if m < 1 {
		m = 1
	}
	nb := cfg.BandBlock
	zflops := 8 * float64(m) * float64(nb) * float64(nb)
	hostOther := time.Duration(float64(cfg.HostOtherPerIter) / float64(p))
	gatherBytes := cfg.GatherBytes / p
	if gatherBytes < 1 {
		gatherBytes = 1
	}

	left := (env.Rank - 1 + p) % p
	right := (env.Rank + 1) % p

	// Phase regions via the MPI_Pcontrol interface, as instrumented HPC
	// codes do; a no-op when monitoring is off.
	pcontrol := func(level int, name string) {
		if pc, ok := env.MPI.(interface{ Pcontrol(int, string) }); ok {
			pc.Pcontrol(level, name)
		}
	}

	// Communication buffers, reused across iterations.
	overlap := make([]byte, nb*nb*16)
	overlapRecv := make([]byte, len(overlap))
	halo := make([]byte, 8*(m/8+1))
	rbuf := make([]byte, len(halo))
	gatherSend := make([]byte, gatherBytes)
	gatherRecv := make([]byte, p*gatherBytes)

	for iter := 0; iter < cfg.Iterations; iter++ {
		// Plane-wave FFTs and local potential work (FFTW/host). This is
		// the jittery part of the iteration, so the halo waits right
		// after it absorb the resulting skew (the MPI_Wait band of
		// Fig. 10).
		env.Compute(hostOther)

		// Halo exchange of wavefunction slabs with neighbours.
		sreq, err := env.MPI.Isend(halo, right, iter)
		if err != nil {
			return err
		}
		rreq, err := env.MPI.Irecv(rbuf, left, iter)
		if err != nil {
			return err
		}
		if _, err := env.MPI.Wait(rreq); err != nil {
			return err
		}
		if _, err := env.MPI.Wait(sreq); err != nil {
			return err
		}

		// Band-by-band subspace updates: the zgemm workhorse.
		pcontrol(1, "subspace_rotation")
		for c := 0; c < cfg.ZgemmCalls; c++ {
			if cfg.UseCUBLAS {
				// Cost-only (nil host operands): simulation cost stays
				// independent of the problem size.
				if err := cublas.ZgemmThunk(env.BLAS, 'N', 'N', m, nb, nb, 1, nil, m, nil, nb, 0, nil, m); err != nil {
					return err
				}
			} else {
				env.Compute(time.Duration(zflops / (cfg.MKLGFlops * 1e9) * float64(time.Second)))
			}
		}
		pcontrol(-1, "subspace_rotation")

		// Orthogonalisation: overlap-matrix reductions.
		pcontrol(1, "orthogonalization")
		for r := 0; r < 4; r++ {
			if err := env.MPI.Allreduce(overlap, overlapRecv, mpisim.OpSum); err != nil {
				return err
			}
		}
		pcontrol(-1, "orthogonalization")

		// Band redistribution: every rank gathers its bands from all
		// others. p rooted gathers per iteration funnel into single
		// endpoints — the contention that makes MPI_Gather dominate at
		// 256 processes in Fig. 10.
		for root := 0; root < p; root++ {
			var gout []byte
			if root == env.Rank {
				gout = gatherRecv
			}
			if err := env.MPI.Gather(gatherSend, gout, root); err != nil {
				return err
			}
		}
	}
	return nil
}
