package profstore

import (
	"sort"
	"strings"
	"time"

	"ipmgo/internal/ipm"
)

// The oracle: the from-scratch walk over Select that the accumulators
// (accum.go) replace. Every report the memo renders must equal, byte for
// byte, what these produce over Select at the same corpus.

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
			acc.Merge(row.Stats)
		}
		for _, row := range job.Kernels {
			acc, ok := kernels[row.Name]
			if !ok {
				acc = &ipm.Stats{}
				kernels[row.Name] = acc
			}
			acc.Merge(row.Stats)
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

// siteTotals rolls up per-call-site stats (name level, kernels excluded
// the same way Aggregate excludes them) for one side of the comparison.
// The per-job reduction happened at ingest; this only merges rollups.
func siteTotals(jobs []*Job) map[string]ipm.Stats {
	out := make(map[string]ipm.Stats)
	for _, job := range jobs {
		for _, row := range job.Sites {
			cur := out[row.Name]
			cur.Merge(row.Stats)
			out[row.Name] = cur
		}
	}
	return out
}

// regressFrom compares two explicit job lists.
func regressFrom(baseJobs, headJobs []*Job, opts RegressOptions) *RegressReport {
	base := siteTotals(baseJobs)
	head := siteTotals(headJobs)

	rep := &RegressReport{
		Base: opts.Base, Head: opts.Head,
		BaseJobs: len(baseJobs), HeadJobs: len(headJobs),
		Threshold: opts.Threshold,
	}

	names := make([]string, 0, len(base)+len(head))
	for n := range base {
		names = append(names, n)
	}
	for n := range head {
		if _, ok := base[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	for _, n := range names {
		b, inBase := base[n]
		h, inHead := head[n]
		row := RegressRow{
			Name:        n,
			BaseCalls:   b.Count,
			HeadCalls:   h.Count,
			BaseSeconds: b.Total.Seconds(),
			HeadSeconds: h.Total.Seconds(),
			BasePerCall: b.Avg().Seconds(),
			HeadPerCall: h.Avg().Seconds(),

			BaseEnergyJoules: b.EnergyJoules(),
			HeadEnergyJoules: h.EnergyJoules(),
		}
		switch {
		case !inBase:
			row.Status = "head-only"
		case !inHead:
			row.Status = "base-only"
		case b.Total <= 0 || b.Count == 0:
			row.Status = "ok"
		default:
			row.DeltaPct = 100 * (row.HeadPerCall - row.BasePerCall) / row.BasePerCall
			switch {
			case row.DeltaPct > opts.Threshold:
				row.Status = "regressed"
				row.Regressed = true
				rep.Regressions++
			case row.DeltaPct < -opts.Threshold:
				row.Status = "improved"
			default:
				row.Status = "ok"
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}
