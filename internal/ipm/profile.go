package ipm

import (
	"sort"
	"strings"
	"time"
)

// RankProfile is the immutable snapshot of one rank's monitor after the
// run, the unit of cross-rank aggregation.
type RankProfile struct {
	Rank      int
	Host      string
	Wallclock time.Duration
	Entries   []Entry

	// Overflow is the number of signatures that spilled out of the fixed
	// hash table region, LoadFactor the fill ratio of that region, and
	// Probes the accumulated probe steps — the monitoring-fidelity
	// diagnostics reported by the banner warning, the XML log, and the
	// /metrics endpoint.
	Overflow   int
	LoadFactor float64
	Probes     uint64

	// Fault-model diagnostics: Errors sums per-signature error counts,
	// MonitorErrors counts panics recovered inside the monitor itself, and
	// Lost/LostAt/LostReason describe a rank that died mid-run (its entries
	// are then a truncated, degraded-fidelity view of its execution).
	Errors        int64
	MonitorErrors int64
	Lost          bool
	LostAt        time.Duration
	LostReason    string

	// SubmitStall sums per-signature command-queue submit stall — time
	// commands spent queued between enqueue and driver flush. Zero when
	// the run did not use command queues.
	SubmitStall time.Duration

	// Device names the GPU backend the rank ran against ("Tesla C2050");
	// empty in profiles recorded before device attribution existed.
	Device string
	// Energy sums per-signature attributed device energy in integer
	// nanojoules. Zero when the active device had no power model.
	Energy int64
}

// EnergyJoules renders the rank's attributed energy in joules.
func (rp RankProfile) EnergyJoules() float64 { return float64(rp.Energy) / 1e9 }

// Snapshot freezes a monitor into a RankProfile.
func Snapshot(m *Monitor) RankProfile {
	rp := RankProfile{
		Rank:          m.rank,
		Host:          m.host,
		Wallclock:     m.Wallclock(),
		Entries:       m.table.Entries(),
		Overflow:      m.table.Overflowed(),
		LoadFactor:    m.table.LoadFactor(),
		Probes:        m.table.Probes(),
		MonitorErrors: m.internalErrs,
	}
	for _, e := range rp.Entries {
		rp.Errors += e.Stats.Errors
		rp.SubmitStall += e.Stats.SubmitStall
		rp.Energy += e.Stats.Energy
	}
	return rp
}

// DomainTime sums the rank's host time in a domain. Pseudo-entries are
// excluded from host-time domains and reported via PseudoTime.
func (rp RankProfile) DomainTime(d Domain) time.Duration {
	var t time.Duration
	for _, e := range rp.Entries {
		if Classify(e.Sig.Name) == d {
			t += e.Stats.Total
		}
	}
	return t
}

// FuncTime sums the rank's time in one function name across byte sizes
// and regions.
func (rp RankProfile) FuncTime(name string) time.Duration {
	var t time.Duration
	for _, e := range rp.Entries {
		if e.Sig.Name == name {
			t += e.Stats.Total
		}
	}
	return t
}

// JobProfile aggregates the per-rank profiles of one run — what rank 0
// assembles at finalisation in the real tool.
type JobProfile struct {
	Command string
	Start   string // human-readable timestamps for the banner header
	Stop    string
	Nodes   int
	Ranks   []RankProfile

	// ExpectedRanks is the job size the run was launched with. When it
	// exceeds len(Ranks) the profile is partial: some ranks produced no
	// snapshot at all (e.g. a truncated log). Zero means "same as
	// len(Ranks)".
	ExpectedRanks int
}

// NewJobProfile assembles a job profile from rank snapshots, sorted by
// rank.
func NewJobProfile(command string, nodes int, ranks []RankProfile) *JobProfile {
	sorted := append([]RankProfile(nil), ranks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Rank < sorted[j].Rank })
	return &JobProfile{Command: command, Nodes: nodes, Ranks: sorted}
}

// NTasks returns the number of ranks.
func (jp *JobProfile) NTasks() int { return len(jp.Ranks) }

// Wallclock returns the job wallclock: the maximum over ranks.
func (jp *JobProfile) Wallclock() time.Duration {
	var w time.Duration
	for _, r := range jp.Ranks {
		if r.Wallclock > w {
			w = r.Wallclock
		}
	}
	return w
}

// Spread holds a total/avg/min/max summary over ranks.
type Spread struct {
	Total time.Duration
	Avg   time.Duration
	Min   time.Duration
	Max   time.Duration
}

func spreadOf(vals []time.Duration) Spread {
	if len(vals) == 0 {
		return Spread{}
	}
	s := Spread{Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		s.Total += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Avg = s.Total / time.Duration(len(vals))
	return s
}

// WallclockSpread summarises wallclock across ranks.
func (jp *JobProfile) WallclockSpread() Spread {
	vals := make([]time.Duration, len(jp.Ranks))
	for i, r := range jp.Ranks {
		vals[i] = r.Wallclock
	}
	return spreadOf(vals)
}

// DomainSpread summarises one domain's host time across ranks.
func (jp *JobProfile) DomainSpread(d Domain) Spread {
	vals := make([]time.Duration, len(jp.Ranks))
	for i, r := range jp.Ranks {
		vals[i] = r.DomainTime(d)
	}
	return spreadOf(vals)
}

// FuncSpread summarises one function's time across ranks.
func (jp *JobProfile) FuncSpread(name string) Spread {
	vals := make([]time.Duration, len(jp.Ranks))
	for i, r := range jp.Ranks {
		vals[i] = r.FuncTime(name)
	}
	return spreadOf(vals)
}

// FuncTotal is a per-function aggregate over all ranks, byte sizes and
// regions, the unit of the banner's function table.
type FuncTotal struct {
	Name  string
	Stats Stats
}

// FuncTotals merges entries by function name across ranks, sorted by
// descending total time.
func (jp *JobProfile) FuncTotals() []FuncTotal {
	byName := make(map[string]*Stats)
	for _, r := range jp.Ranks {
		for _, e := range r.Entries {
			s, ok := byName[e.Sig.Name]
			if !ok {
				s = &Stats{}
				byName[e.Sig.Name] = s
			}
			s.Merge(e.Stats)
		}
	}
	out := make([]FuncTotal, 0, len(byName))
	for n, s := range byName {
		out = append(out, FuncTotal{Name: n, Stats: *s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stats.Total != out[j].Stats.Total {
			return out[i].Stats.Total > out[j].Stats.Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// CallCounts returns the total number of calls per domain across ranks.
func (jp *JobProfile) CallCounts(d Domain) int64 {
	var n int64
	for _, r := range jp.Ranks {
		for _, e := range r.Entries {
			if Classify(e.Sig.Name) == d {
				n += e.Stats.Count
			}
		}
	}
	return n
}

// CommPercent returns MPI host time as a percentage of total wallclock
// (IPM's headline %comm metric).
func (jp *JobProfile) CommPercent() float64 {
	wall := jp.WallclockSpread().Total
	if wall == 0 {
		return 0
	}
	return 100 * float64(jp.DomainSpread(DomainMPI).Total) / float64(wall)
}

// GPUPercent returns on-GPU kernel execution time (@CUDA_EXEC_* pseudo
// entries) as a percentage of total wallclock — the paper's GPU
// utilisation metric (35.96% for Amber).
func (jp *JobProfile) GPUPercent() float64 {
	wall := jp.WallclockSpread().Total
	if wall == 0 {
		return 0
	}
	var gpu time.Duration
	for _, r := range jp.Ranks {
		for _, e := range r.Entries {
			if strings.HasPrefix(e.Sig.Name, "@CUDA_EXEC_STRM") && !strings.Contains(e.Sig.Name, ":") {
				gpu += e.Stats.Total
			}
		}
	}
	return 100 * float64(gpu) / float64(wall)
}

// HostIdlePercent returns @CUDA_HOST_IDLE as a percentage of wallclock.
func (jp *JobProfile) HostIdlePercent() float64 {
	wall := jp.WallclockSpread().Total
	if wall == 0 {
		return 0
	}
	return 100 * float64(jp.FuncSpread(HostIdleName).Total) / float64(wall)
}

// OverflowedSigs returns the total number of signatures that spilled out
// of the fixed hash table region across ranks, and the worst per-rank
// load factor. Non-zero overflow means the banner's statistics were
// collected at degraded hash-table fidelity (longer probe chains plus a
// heap-allocated spill map).
func (jp *JobProfile) OverflowedSigs() (spilled int, worstLoad float64) {
	for _, r := range jp.Ranks {
		spilled += r.Overflow
		if r.LoadFactor > worstLoad {
			worstLoad = r.LoadFactor
		}
	}
	return spilled, worstLoad
}

// Expected returns the launched job size: ExpectedRanks when recorded,
// else the number of rank snapshots present.
func (jp *JobProfile) Expected() int {
	if jp.ExpectedRanks > len(jp.Ranks) {
		return jp.ExpectedRanks
	}
	return len(jp.Ranks)
}

// LostRanks returns the rank snapshots marked lost, in rank order.
func (jp *JobProfile) LostRanks() []RankProfile {
	var out []RankProfile
	for _, r := range jp.Ranks {
		if r.Lost {
			out = append(out, r)
		}
	}
	return out
}

// TotalErrors sums per-call-site error counts across ranks.
func (jp *JobProfile) TotalErrors() int64 {
	var n int64
	for _, r := range jp.Ranks {
		n += r.Errors
	}
	return n
}

// TotalSubmitStall sums command-queue submit stall across ranks.
func (jp *JobProfile) TotalSubmitStall() time.Duration {
	var t time.Duration
	for _, r := range jp.Ranks {
		t += r.SubmitStall
	}
	return t
}

// TotalEnergy sums attributed device energy across ranks, in integer
// nanojoules.
func (jp *JobProfile) TotalEnergy() int64 {
	var n int64
	for _, r := range jp.Ranks {
		n += r.Energy
	}
	return n
}

// TotalEnergyJoules renders the job's attributed energy in joules.
func (jp *JobProfile) TotalEnergyJoules() float64 {
	return float64(jp.TotalEnergy()) / 1e9
}

// DeviceName returns the GPU backend the job ran against: the first
// non-empty per-rank device string ("" for pre-attribution profiles).
func (jp *JobProfile) DeviceName() string {
	for _, r := range jp.Ranks {
		if r.Device != "" {
			return r.Device
		}
	}
	return ""
}

// MonitorErrors sums monitoring-internal recovered panics across ranks.
func (jp *JobProfile) MonitorErrors() int64 {
	var n int64
	for _, r := range jp.Ranks {
		n += r.MonitorErrors
	}
	return n
}

// Degraded reports whether the profile carries any degraded-fidelity
// marker: lost ranks, missing snapshots, or monitor-internal errors.
func (jp *JobProfile) Degraded() bool {
	return len(jp.LostRanks()) > 0 || jp.Expected() > len(jp.Ranks) || jp.MonitorErrors() > 0
}

// Imbalance returns max/avg for one function across ranks — the paper's
// load-balance measure (ReduceForces imbalance "up to a factor of 55%").
func (jp *JobProfile) Imbalance(name string) float64 {
	s := jp.FuncSpread(name)
	if s.Avg == 0 {
		return 0
	}
	return float64(s.Max) / float64(s.Avg)
}
