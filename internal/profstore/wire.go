package profstore

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"ipmgo/internal/ipm"
)

// The wire image: a Job is its store metadata plus its rollup (see
// rollup.go), one shape in a member's memory and on the wire alike. The
// store keeps no document beside it — everything /jobs, /job/{id}, /agg
// and /regress print is derived from these fields. Every duration is an
// integer nanosecond count, every energy an integer nanojoule count, and
// the call-site and kernel rows are sorted by name, so a job has exactly
// one encoding. A member ships its jobs to a router as these rows and
// never as raw XML; decoding one is a single allocation, and a router
// that serves decoded jobs through AggregateJobs, RegressJobs and the
// /jobs renderers produces byte-identical output to a single node holding
// the whole corpus (FuzzRollupWire enforces exactly that).
//
// Because job ids are content hashes, replicas of the same job on
// different members serialise to identical Jobs; the router dedups by
// id, which makes the merge independent of replication factor, member
// count and which replica answered first.

// WireStats is ipm.Stats on the wire: field-for-field, durations as
// integer nanoseconds. Short keys keep a member's rollup payload small
// next to the XML it summarises.
type WireStats struct {
	Count       int64 `json:"c,omitempty"`
	Total       int64 `json:"t,omitempty"`
	Min         int64 `json:"mn,omitempty"`
	Max         int64 `json:"mx,omitempty"`
	Errors      int64 `json:"e,omitempty"`
	Submits     int64 `json:"s,omitempty"`
	SubmitStall int64 `json:"ss,omitempty"`
	Energy      int64 `json:"en,omitempty"`
}

func toWireStats(st ipm.Stats) WireStats {
	return WireStats{
		Count: st.Count, Total: int64(st.Total),
		Min: int64(st.Min), Max: int64(st.Max),
		Errors: st.Errors, Submits: st.Submits,
		SubmitStall: int64(st.SubmitStall), Energy: st.Energy,
	}
}

func (w WireStats) stats() ipm.Stats {
	return ipm.Stats{
		Count: w.Count, Total: time.Duration(w.Total),
		Min: time.Duration(w.Min), Max: time.Duration(w.Max),
		Errors: w.Errors, Submits: w.Submits,
		SubmitStall: time.Duration(w.SubmitStall), Energy: w.Energy,
	}
}

// WireSite is one named stats row (a call site or a kernel).
type WireSite struct {
	Name string `json:"n"`
	WireStats
}

// WireImb is one per-job imbalance row.
type WireImb struct {
	Name       string  `json:"n"`
	MaxOverAvg float64 `json:"m"`
	WorstJob   string  `json:"j"`
}

// Job is one ingested profile: its store metadata plus its ingest-time
// rollup, immutable once built.
type Job struct {
	ID       string   `json:"id"`              // deterministic: caller-supplied or content hash
	Command  string   `json:"cmd,omitempty"`   // from the profile header
	Tags     []string `json:"tags,omitempty"`  // sorted, deduplicated
	Ranks    int      `json:"ranks,omitempty"` // rank snapshots recovered
	Salvaged bool     `json:"salv,omitempty"`  // tolerant parse made concessions
	Warnings int      `json:"warn,omitempty"`  // number of parse warnings recorded
	Bytes    int      `json:"bytes,omitempty"` // size of the ingested XML document
	Lost     int      `json:"lost,omitempty"`  // ranks that died mid-run

	// The rollup. Durations in nanoseconds, summed over ranks.
	Wall  int64 `json:"w,omitempty"`   // rank wallclock
	GPU   int64 `json:"g,omitempty"`   // @CUDA_EXEC_STRMxx stream totals
	Xfer  int64 `json:"x,omitempty"`   // host-side Memcpy/Memset call-site totals
	Idle  int64 `json:"i,omitempty"`   // @CUDA_HOST_IDLE
	MPI   int64 `json:"mpi,omitempty"` // DomainMPI call sites
	Stall int64 `json:"st,omitempty"`  // command-queue submit stall
	// Energy is the attributed device energy in nanojoules, summed over
	// ranks; zero for jobs from unpowered runs.
	Energy int64 `json:"en,omitempty"`

	// The job-level scalars of /jobs and /job/{id}, each the value of the
	// ipm.JobProfile method named.
	WallMax   int64 `json:"wm,omitempty"`   // longest rank wallclock (Wallclock)
	Declared  int   `json:"decl,omitempty"` // ntasks, kept only when it exceeds Ranks (Expected)
	Errors    int64 `json:"err,omitempty"`  // task error totals, else their entries' sums (TotalErrors)
	MonErrors int64 `json:"merr,omitempty"` // monitor-internal recovered panics (MonitorErrors)

	// Sites holds the per call-site stats with the per-kernel pseudo
	// entries excluded — the exact filter Aggregate's call-site table and
	// Regress's site totals share. Kernels holds those pseudo entries
	// (@CUDA_EXEC_STRMxx:kernel) merged by kernel name across streams.
	// Both are sorted by name, one row per name. Imb is the per call-site
	// imbalance (max/avg over ranks), one row per distinct name, in
	// FuncTotals order; empty for single-rank jobs, which carry no
	// balance information.
	Sites   []WireSite `json:"sites,omitempty"`
	Kernels []WireSite `json:"kern,omitempty"`
	Imb     []WireImb  `json:"imb,omitempty"`
}

// WireJobs returns the wire image of the whole corpus, sorted by job id.
func (s *Store) WireJobs() []*Job { return s.Select("") }

// RollupKind says how a Rollups reply relates to the epoch it was asked
// about.
type RollupKind uint8

const (
	// RollupUnchanged: the store is still at that epoch; no jobs follow.
	RollupUnchanged RollupKind = iota
	// RollupDelta: the jobs ingested since that epoch follow.
	RollupDelta
	// RollupFull: the whole corpus follows; that epoch is older than the
	// change log reaches, or belongs to another store generation.
	RollupFull
)

var rollupKindNames = [...]string{"unchanged", "delta", "full"}

func (k RollupKind) String() string { return rollupKindNames[k] }

// ParseRollupKind is the inverse of RollupKind.String.
func ParseRollupKind(s string) (RollupKind, error) {
	for k, name := range rollupKindNames {
		if s == name {
			return RollupKind(k), nil
		}
	}
	return 0, fmt.Errorf("profstore: unknown rollup reply kind %q", s)
}

// Rollups is a member's answer to "what changed since epoch E": the
// payload of /shard/rollups?since=E.
type Rollups struct {
	Epoch uint64 // the store's epoch, captured before Jobs was selected
	Kind  RollupKind
	Jobs  []*Job // sorted by id
}

// changedSince reads the change log: the store's epoch, and the ids
// whose inserts moved it past since, sorted and deduplicated. ok is false
// when since is older than the log reaches or belongs to another store
// generation. The epoch is read under the same lock as the log, before
// any job is.
func (s *Store) changedSince(since uint64) (ep uint64, ids []string, ok bool) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	ep = s.epoch.Load()
	n := ep - since
	if n == 0 {
		return ep, nil, true
	}
	if since < s.logBase || since > ep || n > changeLogLen {
		return ep, nil, false
	}
	ids = make([]string, 0, n)
	for e := since + 1; e != ep+1; e++ {
		ids = append(ids, s.changed[e%changeLogLen])
	}
	slices.Sort(ids)
	return ep, slices.Compact(ids), true
}

// Since implements Corpus: the ids ingested since epoch ver, from the
// change log.
func (s *Store) Since(ver uint64) ([]string, bool) {
	_, ids, ok := s.changedSince(ver)
	return ids, ok
}

// RollupsSince answers a router holding this store's rollups as of epoch
// since. The epoch is captured BEFORE the jobs are read (the memo.go
// rule): a reply may carry a job newer than its epoch — the next reply
// re-sends it — but never an epoch newer than one of its jobs, so a
// mirror that applies every reply in turn is never ahead of its data.
func (s *Store) RollupsSince(since uint64) Rollups {
	ep, ids, ok := s.changedSince(since)
	switch {
	case !ok:
		return Rollups{Epoch: ep, Kind: RollupFull, Jobs: s.WireJobs()}
	case ep == since:
		return Rollups{Epoch: ep, Kind: RollupUnchanged}
	}
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = s.Get(id) // inserted before its epoch bump, and jobs are never removed
	}
	return Rollups{Epoch: ep, Kind: RollupDelta, Jobs: jobs}
}

// RollupMirror is a router's copy of one member's rollups, kept current
// by applying that member's RollupsSince(Epoch) replies in turn. The
// zero value is empty at epoch 0, which no store generation counts through
// (see stampEpoch): its first reply is the full corpus.
type RollupMirror struct {
	Epoch uint64
	jobs  map[string]*Job
}

// Apply folds in the reply to RollupsSince(m.Epoch).
func (m *RollupMirror) Apply(r Rollups) {
	if r.Kind == RollupUnchanged {
		return
	}
	if r.Kind == RollupFull || m.jobs == nil {
		m.jobs = make(map[string]*Job, len(r.Jobs))
	}
	for _, j := range r.Jobs {
		m.jobs[j.ID] = j
	}
	m.Epoch = r.Epoch
}

// Get returns the mirrored job with the given id, or nil.
func (m *RollupMirror) Get(id string) *Job { return m.jobs[id] }

// Jobs lists the mirrored jobs, in no particular order.
func (m *RollupMirror) Jobs() []*Job {
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	return out
}

// EncodeWireJobs renders the compact one-line JSON body of a
// /shard/rollups response.
func EncodeWireJobs(jobs []*Job) ([]byte, error) {
	return json.Marshal(jobs)
}

// DecodeWireJobs parses a /shard/rollups body.
func DecodeWireJobs(data []byte) ([]*Job, error) {
	var out []*Job
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("profstore: decoding wire rollups: %w", err)
	}
	return out, nil
}

// MergeJobs unions job sets by id (the first set holding an id wins —
// replicas of a content-addressed job are identical) and returns them
// sorted by id: the same job list, in the same order, that a single
// store holding the union corpus would Select.
func MergeJobs(sets ...[]*Job) []*Job {
	n := 0
	for _, set := range sets {
		n += len(set)
	}
	seen := make(map[string]bool, n)
	out := make([]*Job, 0, n)
	for _, set := range sets {
		for _, j := range set {
			if !seen[j.ID] {
				seen[j.ID] = true
				out = append(out, j)
			}
		}
	}
	sortByID(out)
	return out
}

// AggregateJobs computes the cross-job rollup over an explicit job list
// (sorted by id) — the router-side merge of MergeJobs output. Byte for
// byte the same report a single store over the same jobs would produce.
func AggregateJobs(jobs []*Job, opts AggOptions) *AggReport {
	return foldJobs(jobs).aggReport(opts)
}

// RegressJobs compares two explicit job lists — the router-side twin of
// Store.Regress.
func RegressJobs(baseJobs, headJobs []*Job, opts RegressOptions) *RegressReport {
	if opts.Threshold <= 0 {
		opts.Threshold = 10
	}
	return regressReport(foldJobs(baseJobs), foldJobs(headJobs), opts)
}

// FilterJobs applies a job selector (see Store.Select) to an explicit
// job list, preserving order.
func FilterJobs(jobs []*Job, sel string) []*Job {
	match := matcherFor(sel)
	out := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		if match(j) {
			out = append(out, j)
		}
	}
	return out
}
