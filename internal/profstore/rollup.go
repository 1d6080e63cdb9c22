package profstore

import (
	"slices"
	"strings"

	"ipmgo/internal/ipm"
)

// A job's rollup is the per-job pre-aggregation computed once at ingest:
// every quantity the queries need from a job, reduced from the per-rank
// entry walk to the rollup fields of its Job — the scalar sums and
// maxima, the call-site and kernel rows sorted by name and the imbalance
// rows in FuncTotals order. Because ipm.Stats.Merge is commutative and
// associative (integer sums plus zero-count-guarded min/max) and every
// float in a report is derived only after the final integer merge,
// merging rollups job-by-job is byte-identical to the original walk over
// every rank entry — in any merge order.
//
// A rollup is immutable once built; concurrent aggregations may read it
// without locking.

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
			st.Merge(rows[j].Stats)
		}
		rows[n] = WireSite{Name: rows[i].Name, Stats: st}
		i = j
	}
	return rows[:n]
}
