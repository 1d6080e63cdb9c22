package profstore

import (
	"slices"
	"strings"

	"ipmgo/internal/ipm"
)

// A job's rollup is the per-job pre-aggregation computed once at ingest:
// every quantity Aggregate and Regress need from a job, reduced from the
// per-rank entry walk to the rollup fields of its WireJob — the scalar
// sums, the call-site and kernel rows sorted by name and the imbalance
// rows in FuncTotals order. Because ipm.Stats.Merge is commutative and
// associative (integer sums plus zero-count-guarded min/max) and every
// float in a report is derived only after the final integer merge,
// merging rollups job-by-job is byte-identical to the original walk over
// every rank entry — in any merge order.
//
// A rollup is immutable once built; concurrent aggregations may read it
// without locking.

// computeRollup reduces one job profile to the rollup fields of its wire
// image; the metadata fields are left zero. jobID labels the imbalance
// rows. It is ingest's DOM fallback and the reference the streaming
// rollupSink is tested against.
func computeRollup(jp *ipm.JobProfile, jobID string) WireJob {
	var w WireJob
	var sites, kernels []WireSite
	for _, r := range jp.Ranks {
		w.Wall += int64(r.Wallclock)
		w.Stall += int64(r.SubmitStall)
		w.Energy += r.Energy
		if r.Lost {
			w.Lost++
		}
		for _, e := range r.Entries {
			name := e.Sig.Name
			total := int64(e.Stats.Total)
			switch {
			case isGPUExec(name):
				w.GPU += total
			case name == ipm.HostIdleName:
				w.Idle += total
			case e.Sig.Pseudo():
				// Per-kernel pseudo entries are tallied below; other
				// pseudo entries only appear in the call-site table.
			case isTransfer(name):
				w.Xfer += total
			}
			if ipm.Classify(name) == ipm.DomainMPI {
				w.MPI += total
			}
			row := WireSite{Name: name, WireStats: toWireStats(e.Stats)}
			if k := kernelOf(name); k != "" {
				row.Name = k
				kernels = append(kernels, row)
				continue // per-kernel entries double the stream totals; keep them out of call sites
			}
			sites = append(sites, row)
		}
	}
	// One row per entry until folded: copy the folded rows out so the
	// job does not keep the per-entry arrays.
	w.Sites, w.Kernels = slices.Clone(foldRows(sites)), slices.Clone(foldRows(kernels))
	if len(jp.Ranks) > 1 {
		for _, ft := range jp.FuncTotals() {
			w.Imb = append(w.Imb, WireImb{
				Name: ft.Name, MaxOverAvg: jp.Imbalance(ft.Name), WorstJob: jobID,
			})
		}
	}
	return w
}

// foldRows merges the rows of each name into one, folding that name's
// stats from zero in input order, and returns the merged rows sorted by
// name, in place.
func foldRows(rows []WireSite) []WireSite {
	slices.SortStableFunc(rows, func(a, b WireSite) int { return strings.Compare(a.Name, b.Name) })
	n := 0
	for i := 0; i < len(rows); n++ {
		var st ipm.Stats
		j := i
		for ; j < len(rows) && rows[j].Name == rows[i].Name; j++ {
			st.Merge(rows[j].stats())
		}
		rows[n] = WireSite{Name: rows[i].Name, WireStats: toWireStats(st)}
		i = j
	}
	return rows[:n]
}
