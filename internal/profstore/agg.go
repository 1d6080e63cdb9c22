package profstore

import (
	"sort"
	"strings"
	"time"

	"ipmgo/internal/ipm"
)

// This file computes the cross-job rollups behind GET /agg: the
// workload-level views that motivate running IPM on every job (paper
// Section II). Every slice in the report has a total ordering (time
// descending, then name ascending) and every number is accumulated as an
// integer duration before a single final float conversion, so the same
// corpus renders byte-identically regardless of ingest order, shard
// layout, or how many goroutines filled the store.

// AggOptions selects and sizes an aggregation.
type AggOptions struct {
	Sel  string // job selector (see Store.Select); "" = whole corpus
	TopN int    // rows kept in the top-kernel and imbalance tables (default 10)
}

// CallSiteAgg is one call-site signature rolled up across jobs and ranks.
type CallSiteAgg struct {
	Name     string  `json:"name"`
	Domain   string  `json:"domain"` // MPI / CUDA / CUBLAS / CUFFT / pseudo / other
	Calls    int64   `json:"calls"`
	Errors   int64   `json:"errors,omitempty"`
	Seconds  float64 `json:"seconds"`
	PerCall  float64 `json:"per_call_seconds"`
	WallPct  float64 `json:"wall_pct"`
	Transfer bool    `json:"transfer,omitempty"`
	// Submits/SubmitStallSeconds surface the driver command-queue layer:
	// how many commands this call site pushed through a submission queue
	// and the total virtual time they waited before device hand-off.
	Submits            int64   `json:"submits,omitempty"`
	SubmitStallSeconds float64 `json:"submit_stall_seconds,omitempty"`
	// EnergyJoules is the device energy attributed to this call site by
	// the power model (zero when the producing runs were unpowered).
	EnergyJoules float64 `json:"energy_joules,omitempty"`
}

// KernelAgg is one GPU kernel rolled up across streams, ranks and jobs.
type KernelAgg struct {
	Kernel   string  `json:"kernel"`
	Launches int64   `json:"launches"`
	Seconds  float64 `json:"seconds"`
}

// ImbalanceAgg reports the worst per-rank load imbalance (max/avg) seen
// for one call site, and the job it occurred in.
type ImbalanceAgg struct {
	Name       string  `json:"name"`
	MaxOverAvg float64 `json:"max_over_avg"`
	WorstJob   string  `json:"worst_job"`
}

// JobEnergyAgg is the per-job energy rollup: total attributed joules and
// the per-rank average. Jobs without energy attribution are omitted.
type JobEnergyAgg struct {
	Job           string  `json:"job"`
	Ranks         int     `json:"ranks"`
	EnergyJoules  float64 `json:"energy_joules"`
	PerRankJoules float64 `json:"per_rank_joules"`
}

// AggReport is the GET /agg response body.
type AggReport struct {
	Selector  string `json:"selector,omitempty"`
	Jobs      int    `json:"jobs"`
	Ranks     int    `json:"ranks"`
	LostRanks int    `json:"lost_ranks,omitempty"`
	Salvaged  int    `json:"salvaged_jobs,omitempty"`

	WallclockSeconds float64 `json:"wallclock_seconds"` // summed over ranks
	GPUSeconds       float64 `json:"gpu_seconds"`
	TransferSeconds  float64 `json:"transfer_seconds"`
	HostIdleSeconds  float64 `json:"host_idle_seconds"`
	MPISeconds       float64 `json:"mpi_seconds"`
	// SubmitStallSeconds sums command-queue submit stall over every rank
	// of every selected job (zero when no job modelled the queue layer).
	SubmitStallSeconds float64 `json:"submit_stall_seconds,omitempty"`
	// EnergyJoules sums attributed device energy over every rank of
	// every selected job (zero when no job carried a power model).
	EnergyJoules float64 `json:"energy_joules,omitempty"`

	// Fleet fractions of total rank wallclock: how busy the GPUs were
	// and how long hosts sat blocked behind them.
	GPUBusyFraction     float64 `json:"gpu_busy_fraction"`
	HostBlockedFraction float64 `json:"host_blocked_fraction"`

	CallSites  []CallSiteAgg  `json:"call_sites"`
	TopKernels []KernelAgg    `json:"top_kernels"`
	Imbalance  []ImbalanceAgg `json:"imbalance"`
	// JobEnergy lists the selected jobs carrying energy attribution, in
	// job-id order (the Select order), so the table is deterministic for
	// any ingest order.
	JobEnergy []JobEnergyAgg `json:"job_energy,omitempty"`
}

// isTransfer classifies a host call site as a host<->device transfer.
func isTransfer(name string) bool {
	return strings.Contains(name, "Memcpy") || strings.Contains(name, "Memset")
}

// kernelOf extracts the kernel name from a per-kernel pseudo entry
// (@CUDA_EXEC_STRMxx:kernel), or "" when the entry is not one.
func kernelOf(name string) string {
	if !strings.HasPrefix(name, "@CUDA_EXEC_STRM") {
		return ""
	}
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return ""
}

// Aggregate computes the cross-job rollup for the selected jobs. Repeated
// aggregations of an unchanged store are served from the epoch-keyed memo
// cache (see memo.go); the returned report is shared and must not be
// mutated.
func (s *Store) Aggregate(opts AggOptions) *AggReport { return s.memo.Aggregate(s, opts) }

// aggregateJobs merges the per-job rollups. Each job was reduced once at
// ingest; the query-time cost is proportional to the number of distinct
// call sites and kernels, not the number of rank entries.
func aggregateJobs(jobs []*Job, opts AggOptions) *AggReport {
	topN := opts.TopN
	if topN <= 0 {
		topN = 10
	}
	rep := &AggReport{Selector: opts.Sel, Jobs: len(jobs)}

	sites := make(map[string]*ipm.Stats)
	kernels := make(map[string]*ipm.Stats)
	worst := make(map[string]ImbalanceAgg)

	var wall, gpu, xfer, idle, mpi, stall time.Duration
	var energyNJ int64
	for _, job := range jobs {
		rep.Ranks += job.Ranks
		rep.LostRanks += job.Lost
		if job.Salvaged {
			rep.Salvaged++
		}
		wall += time.Duration(job.Wall)
		gpu += time.Duration(job.GPU)
		xfer += time.Duration(job.Xfer)
		idle += time.Duration(job.Idle)
		mpi += time.Duration(job.MPI)
		stall += time.Duration(job.Stall)
		if job.Energy != 0 {
			energyNJ += job.Energy
			je := JobEnergyAgg{
				Job: job.ID, Ranks: job.Ranks,
				EnergyJoules: float64(job.Energy) / 1e9,
			}
			if job.Ranks > 0 {
				je.PerRankJoules = je.EnergyJoules / float64(job.Ranks)
			}
			rep.JobEnergy = append(rep.JobEnergy, je)
		}
		for _, row := range job.Sites {
			acc, ok := sites[row.Name]
			if !ok {
				acc = &ipm.Stats{}
				sites[row.Name] = acc
			}
			acc.Merge(row.stats())
		}
		for _, row := range job.Kernels {
			acc, ok := kernels[row.Name]
			if !ok {
				acc = &ipm.Stats{}
				kernels[row.Name] = acc
			}
			acc.Merge(row.stats())
		}
		// Per-rank imbalance (max/avg) per call site, worst job wins.
		// Jobs arrive sorted by id (Select) and each rollup lists every
		// site once, so this reproduces the original walk exactly.
		for _, ia := range job.Imb {
			w, ok := worst[ia.Name]
			if !ok || ia.MaxOverAvg > w.MaxOverAvg || (ia.MaxOverAvg == w.MaxOverAvg && ia.WorstJob < w.WorstJob) {
				worst[ia.Name] = ImbalanceAgg(ia)
			}
		}
	}

	rep.WallclockSeconds = wall.Seconds()
	rep.GPUSeconds = gpu.Seconds()
	rep.TransferSeconds = xfer.Seconds()
	rep.HostIdleSeconds = idle.Seconds()
	rep.MPISeconds = mpi.Seconds()
	rep.SubmitStallSeconds = stall.Seconds()
	rep.EnergyJoules = float64(energyNJ) / 1e9
	if wall > 0 {
		rep.GPUBusyFraction = float64(gpu) / float64(wall)
		rep.HostBlockedFraction = float64(idle) / float64(wall)
	}

	rep.CallSites = make([]CallSiteAgg, 0, len(sites))
	for name, acc := range sites {
		row := CallSiteAgg{
			Name:     name,
			Domain:   ipm.Classify(name).String(),
			Calls:    acc.Count,
			Errors:   acc.Errors,
			Seconds:  acc.Total.Seconds(),
			Transfer: !strings.HasPrefix(name, "@") && isTransfer(name),
			Submits:  acc.Submits,
		}
		row.SubmitStallSeconds = acc.SubmitStall.Seconds()
		row.EnergyJoules = acc.EnergyJoules()
		if acc.Count > 0 {
			row.PerCall = acc.Avg().Seconds()
		}
		if wall > 0 {
			row.WallPct = 100 * float64(acc.Total) / float64(wall)
		}
		rep.CallSites = append(rep.CallSites, row)
	}
	sort.Slice(rep.CallSites, func(i, j int) bool {
		a, b := rep.CallSites[i], rep.CallSites[j]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		return a.Name < b.Name
	})

	rep.TopKernels = make([]KernelAgg, 0, len(kernels))
	for k, st := range kernels {
		rep.TopKernels = append(rep.TopKernels, KernelAgg{
			Kernel: k, Launches: st.Count, Seconds: st.Total.Seconds(),
		})
	}
	sort.Slice(rep.TopKernels, func(i, j int) bool {
		a, b := rep.TopKernels[i], rep.TopKernels[j]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		return a.Kernel < b.Kernel
	})
	if len(rep.TopKernels) > topN {
		rep.TopKernels = rep.TopKernels[:topN]
	}

	rep.Imbalance = make([]ImbalanceAgg, 0, len(worst))
	for _, w := range worst {
		rep.Imbalance = append(rep.Imbalance, w)
	}
	sort.Slice(rep.Imbalance, func(i, j int) bool {
		a, b := rep.Imbalance[i], rep.Imbalance[j]
		if a.MaxOverAvg != b.MaxOverAvg {
			return a.MaxOverAvg > b.MaxOverAvg
		}
		return a.Name < b.Name
	})
	if len(rep.Imbalance) > topN {
		rep.Imbalance = rep.Imbalance[:topN]
	}
	return rep
}
