package profstore

import (
	"strings"
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

	body *encodedBody // set on the reports a single node's memo shares
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
