package profstore

import "slices"

// This file implements GET /regress: comparing two jobs — or two
// tag-sets, e.g. a nightly tag against today's — per call-site
// signature. The regression metric is per-call time (Total/Count),
// which is invariant to how many jobs each side aggregates, so a
// tag-set of 30 runs compares cleanly against one of 5.

// RegressOptions selects the two sides and the flagging threshold.
type RegressOptions struct {
	Base      string  // selector for the baseline side
	Head      string  // selector for the candidate side
	Threshold float64 // regression threshold in percent (default 10)
}

// RegressRow compares one call-site signature across the two sides.
type RegressRow struct {
	Name        string  `json:"name"`
	BaseCalls   int64   `json:"base_calls"`
	HeadCalls   int64   `json:"head_calls"`
	BaseSeconds float64 `json:"base_seconds"`
	HeadSeconds float64 `json:"head_seconds"`
	BasePerCall float64 `json:"base_per_call_seconds"`
	HeadPerCall float64 `json:"head_per_call_seconds"`
	// Base/HeadEnergyJoules compare attributed device energy per side;
	// zero (and omitted) for signatures from unpowered runs.
	BaseEnergyJoules float64 `json:"base_energy_joules,omitempty"`
	HeadEnergyJoules float64 `json:"head_energy_joules,omitempty"`
	// DeltaPct is the per-call time change in percent; meaningful only
	// when the signature appears on both sides with base time > 0.
	DeltaPct  float64 `json:"delta_pct"`
	Regressed bool    `json:"regressed,omitempty"`
	// Status distinguishes comparable rows from one-sided ones:
	// "ok", "regressed", "improved", "base-only", "head-only".
	Status string `json:"status"`
}

// RegressReport is the GET /regress response body.
type RegressReport struct {
	Base        string       `json:"base"`
	Head        string       `json:"head"`
	BaseJobs    int          `json:"base_jobs"`
	HeadJobs    int          `json:"head_jobs"`
	Threshold   float64      `json:"threshold_pct"`
	Regressions int          `json:"regressions"`
	Rows        []RegressRow `json:"rows"`

	body *encodedBody // set on the reports a single node's memo shares
}

// Regress compares the base selection against the head selection.
// Repeated comparisons of an unchanged store are served from the
// epoch-keyed memo cache (see memo.go); the returned report is shared and
// must not be mutated.
func (s *Store) Regress(opts RegressOptions) *RegressReport { return s.memo.Regress(s, opts) }

// regressReport compares the site totals of two accumulators: the base
// and head selections' call-site rows (kernels excluded the same way
// /agg excludes them).
func regressReport(baseAcc, headAcc *accum, opts RegressOptions) *RegressReport {
	base, head := baseAcc.sites, headAcc.sites
	rep := &RegressReport{
		Base: opts.Base, Head: opts.Head,
		BaseJobs: len(baseAcc.members), HeadJobs: len(headAcc.members),
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
	slices.Sort(names)

	for _, n := range names {
		bs, inBase := base[n]
		hs, inHead := head[n]
		b, h := bs.stats(), hs.stats()
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
