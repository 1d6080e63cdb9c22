package profstore

import (
	"slices"
	"strings"
	"sync"
	"time"

	"ipmgo/internal/ipm"
)

// Incremental aggregation. An accum is one job selector's running
// rollup: the integer sums of every selected job, which /agg renders for
// any top= and /regress reads as one side's site totals. It moves forward
// by the ids the corpus changed since its version (Corpus.Since) instead
// of re-walking Select: for each changed id it takes out the copy it had
// folded in and puts in the current one, each only if the selector
// matches. Every float of a report is still derived once, at render, from
// the integer sums, so a report rendered from an accumulator is
// byte-identical to the from-scratch walk over the same jobs for any
// order of folds.
//
// Three rules keep it so:
//   - every named row (call site, kernel, imbalance) counts the rows that
//     contribute to it, and a name leaves when its last row does — not
//     when its Count reaches 0, because count-0 rows exist;
//   - a site's worst imbalance is the maximum under (MaxOverAvg
//     descending, job id ascending), which no fold order changes; when the
//     row holding it leaves, that site alone is recomputed over the
//     members;
//   - applying an id replaces the member with the current copy, so an id
//     applied twice (a fold that already saw a job newer than its
//     version) changes nothing the second time.

// maxAccums bounds the live accumulators of one Memo; the least recently
// used goes first. A selector that comes back is rebuilt.
const maxAccums = 16

// rowSums is one named row's integer sums — the fields of ipm.Stats a
// report renders, which are all of them but Min and Max — and the number
// of rows folded in.
type rowSums struct {
	count, total, errors, submits, stall, energy int64
	rows                                         int
}

// fold adds (sign 1) or takes out (sign -1) one row under the zero guards
// of ipm.Stats.Merge, so the sums always equal a Merge of the rows
// present. Integer arithmetic wraps exactly, so a take-out undoes its
// add whatever came in between.
func (r *rowSums) fold(w ipm.Stats, sign int64) {
	r.rows += int(sign)
	r.errors += sign * w.Errors
	r.energy += sign * w.Energy
	if w.Submits != 0 {
		r.submits += sign * w.Submits
		r.stall += sign * int64(w.SubmitStall)
	}
	if w.Count != 0 {
		r.count += sign * w.Count
		r.total += sign * int64(w.Total)
	}
}

// stats is the ipm.Stats the folded rows merge to, Min and Max aside.
func (r rowSums) stats() ipm.Stats {
	return ipm.Stats{
		Count: r.count, Total: time.Duration(r.total), Errors: r.errors,
		Submits: r.submits, SubmitStall: time.Duration(r.stall), Energy: r.energy,
	}
}

// worstImb is one call site's worst per-rank imbalance over the members:
// the highest max/avg, and the lowest job id among the rows that have it.
type worstImb struct {
	max   float64
	job   string
	rows  int32
	stale bool // the row holding the worst left; recompute before rendering
}

// beatenBy reports whether row is worse than the current worst.
func (e *worstImb) beatenBy(row WireImb) bool {
	return row.MaxOverAvg > e.max || (row.MaxOverAvg == e.max && row.WorstJob < e.job)
}

// accum is one selector's running rollup (see above). Its mutex is held
// while it moves and while a report is rendered from it.
type accum struct {
	mu    sync.Mutex
	sel   string
	match func(*Job) bool
	built bool   // false until the first rebuild
	ver   uint64 // every change up to this corpus version is folded in
	sums
}

// sums is what an accumulator has folded in.
type sums struct {
	members []*Job // the selected jobs, sorted by id
	energy  []*Job // the members with attributed energy, sorted by id

	ranks, lost, salvaged             int
	wall, gpu, xfer, idle, mpi, stall int64
	energyNJ                          int64
	sites, kernels                    map[string]rowSums
	imb                               map[string]worstImb
	stale                             int // imb entries marked stale
}

func newAccum(sel string) *accum { return &accum{sel: sel, match: matcherFor(sel)} }

// rebuild folds jobs (sorted by id, owned by the accumulator from here
// on) in from empty.
func (a *accum) rebuild(jobs []*Job) {
	a.sums = sums{members: jobs}
	a.sites = make(map[string]rowSums)
	a.kernels = make(map[string]rowSums)
	a.imb = make(map[string]worstImb)
	for _, j := range jobs {
		a.fold(j, 1)
		if j.Energy != 0 {
			a.energy = append(a.energy, j)
		}
	}
}

// foldJobs is the one-shot fold of an explicit job list, sorted by id.
func foldJobs(jobs []*Job) *accum {
	a := new(accum)
	a.rebuild(jobs)
	return a
}

func foldRow(m map[string]rowSums, w WireSite, sign int64) {
	r := m[w.Name]
	r.fold(w.Stats, sign)
	if r.rows == 0 {
		delete(m, w.Name)
	} else {
		m[w.Name] = r
	}
}

// fold adds (sign 1) or takes out (sign -1) one job's rollup.
func (a *accum) fold(j *Job, sign int64) {
	a.ranks += int(sign) * j.Ranks
	a.lost += int(sign) * j.Lost
	if j.Salvaged {
		a.salvaged += int(sign)
	}
	a.wall += sign * j.Wall
	a.gpu += sign * j.GPU
	a.xfer += sign * j.Xfer
	a.idle += sign * j.Idle
	a.mpi += sign * j.MPI
	a.stall += sign * j.Stall
	a.energyNJ += sign * j.Energy
	for _, row := range j.Sites {
		foldRow(a.sites, row, sign)
	}
	for _, row := range j.Kernels {
		foldRow(a.kernels, row, sign)
	}
	for _, row := range j.Imb {
		e, ok := a.imb[row.Name]
		if sign < 0 && e.rows == 1 {
			delete(a.imb, row.Name)
			continue
		}
		switch {
		case sign > 0 && (!ok || !e.stale && e.beatenBy(row)):
			e.max, e.job = row.MaxOverAvg, row.WorstJob
		case sign < 0 && !e.stale && row.WorstJob == e.job:
			e.stale = true
			a.stale++
		}
		e.rows += int32(sign)
		a.imb[row.Name] = e
	}
}

// recomputeStale settles every site whose worst row left: the maximum
// over the members' rows for that site.
func (a *accum) recomputeStale() {
	if a.stale == 0 {
		return
	}
	for name, e := range a.imb {
		if !e.stale {
			continue
		}
		first := true
		for _, j := range a.members {
			for _, row := range j.Imb {
				if row.Name == name && (first || e.beatenBy(row)) {
					e.max, e.job, first = row.MaxOverAvg, row.WorstJob, false
				}
			}
		}
		e.stale = false
		a.imb[name] = e
	}
	a.stale = 0
}

// byID finds id in an id-sorted job list.
func byID(jobs []*Job, id string) (int, bool) {
	return slices.BinarySearchFunc(jobs, id, func(j *Job, id string) int { return strings.Compare(j.ID, id) })
}

// setJob makes j (nil: none) the entry for id in the id-sorted list.
func setJob(jobs []*Job, id string, j *Job) []*Job {
	i, found := byID(jobs, id)
	switch {
	case found && j != nil:
		jobs[i] = j
	case found:
		jobs = slices.Delete(jobs, i, i+1)
	case j != nil:
		jobs = slices.Insert(jobs, i, j)
	}
	return jobs
}

// apply moves the accumulator by the changed ids: each member is replaced
// by c's current copy of it, if the selector still matches. It reports
// false, leaving a rebuild to the caller, for an id Select cannot look
// up on its own.
func (a *accum) apply(c Corpus, ids []string) bool {
	for _, id := range ids {
		if !IsIDSelector(id) {
			return false
		}
		var cur *Job
		if js := c.Select(id); len(js) == 1 && a.match(js[0]) {
			cur = js[0]
		}
		var old *Job
		if i, found := byID(a.members, id); found {
			old = a.members[i]
		}
		if old == cur {
			continue
		}
		if old != nil {
			a.fold(old, -1)
		}
		if cur != nil {
			a.fold(cur, 1)
		}
		a.members = setJob(a.members, id, cur)
		if cur != nil && cur.Energy == 0 {
			cur = nil
		}
		a.energy = setJob(a.energy, id, cur)
	}
	a.recomputeStale()
	return true
}

// advance brings the accumulator up to c's present: by the ids changed
// since its version when c can name them, else by a rebuild over
// Select. It reports whether it rebuilt. The caller holds a.mu.
func (a *accum) advance(c Corpus) (rebuilt bool) {
	ver := c.Epoch()
	if a.built {
		if a.ver == ver {
			return false
		}
		if ids, ok := c.Since(a.ver); ok && a.apply(c, ids) {
			a.ver = ver
			return false
		}
	}
	a.rebuild(c.Select(a.sel))
	a.ver, a.built = ver, true
	return true
}

// aggReport renders /agg from the sums.
func (a *accum) aggReport(opts AggOptions) *AggReport {
	topN := opts.TopN
	if topN <= 0 {
		topN = 10
	}
	wall := time.Duration(a.wall)
	rep := &AggReport{
		Selector: opts.Sel, Jobs: len(a.members),
		Ranks: a.ranks, LostRanks: a.lost, Salvaged: a.salvaged,

		WallclockSeconds:   wall.Seconds(),
		GPUSeconds:         time.Duration(a.gpu).Seconds(),
		TransferSeconds:    time.Duration(a.xfer).Seconds(),
		HostIdleSeconds:    time.Duration(a.idle).Seconds(),
		MPISeconds:         time.Duration(a.mpi).Seconds(),
		SubmitStallSeconds: time.Duration(a.stall).Seconds(),
		EnergyJoules:       float64(a.energyNJ) / 1e9,
	}
	if wall > 0 {
		rep.GPUBusyFraction = float64(a.gpu) / float64(wall)
		rep.HostBlockedFraction = float64(a.idle) / float64(wall)
	}

	rep.CallSites = make([]CallSiteAgg, 0, len(a.sites))
	for name, r := range a.sites {
		acc := r.stats()
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
	slices.SortFunc(rep.CallSites, func(a, b CallSiteAgg) int {
		return byValueThenName(a.Seconds, b.Seconds, a.Name, b.Name)
	})

	rep.TopKernels = make([]KernelAgg, 0, len(a.kernels))
	for k, r := range a.kernels {
		rep.TopKernels = append(rep.TopKernels, KernelAgg{
			Kernel: k, Launches: r.count, Seconds: time.Duration(r.total).Seconds(),
		})
	}
	slices.SortFunc(rep.TopKernels, func(a, b KernelAgg) int {
		return byValueThenName(a.Seconds, b.Seconds, a.Kernel, b.Kernel)
	})
	if len(rep.TopKernels) > topN {
		rep.TopKernels = rep.TopKernels[:topN]
	}

	rep.Imbalance = make([]ImbalanceAgg, 0, len(a.imb))
	for name, e := range a.imb {
		rep.Imbalance = append(rep.Imbalance, ImbalanceAgg{Name: name, MaxOverAvg: e.max, WorstJob: e.job})
	}
	slices.SortFunc(rep.Imbalance, func(a, b ImbalanceAgg) int {
		return byValueThenName(a.MaxOverAvg, b.MaxOverAvg, a.Name, b.Name)
	})
	if len(rep.Imbalance) > topN {
		rep.Imbalance = rep.Imbalance[:topN]
	}

	for _, j := range a.energy {
		je := JobEnergyAgg{Job: j.ID, Ranks: j.Ranks, EnergyJoules: float64(j.Energy) / 1e9}
		if j.Ranks > 0 {
			je.PerRankJoules = je.EnergyJoules / float64(j.Ranks)
		}
		rep.JobEnergy = append(rep.JobEnergy, je)
	}
	return rep
}

// byValueThenName is the report tables' order: the value descending,
// then the name ascending.
func byValueThenName(a, b float64, na, nb string) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return strings.Compare(na, nb)
}
