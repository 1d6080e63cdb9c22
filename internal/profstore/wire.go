package profstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
// one encoding (EncodeWireJobs). A member ships its jobs to a router as
// that encoding and never as raw XML; ids, tags and names travel as their
// bytes, valid UTF-8 or not, and a router that serves decoded jobs
// through the single node's folds and renderers produces byte-identical
// output to a single node holding the whole corpus (FuzzRollupWire
// enforces exactly that).
//
// Replicas of one id are deduplicated by id. A content-hash id names one
// document, so its replicas are identical; replicas of a caller-chosen id
// can diverge after a write that missed an owner (ROADMAP item 20), and
// the router keeps the copy MergeJobs' order picks.

// WireSite is one named stats row (a call site or a kernel).
type WireSite struct {
	Name string
	ipm.Stats
}

// WireImb is one per-job imbalance row.
type WireImb struct {
	Name       string
	MaxOverAvg float64
	WorstJob   string
}

// Job is one ingested profile: its store metadata plus its ingest-time
// rollup, immutable once built.
type Job struct {
	ID       string   // deterministic: caller-supplied or content hash
	Command  string   // from the profile header
	Tags     []string // sorted, deduplicated
	Ranks    int      // rank snapshots recovered
	Salvaged bool     // tolerant parse made concessions
	Warnings int      // number of parse warnings recorded
	Bytes    int      // size of the ingested XML document
	Lost     int      // ranks that died mid-run

	// The rollup. Durations in nanoseconds, summed over ranks.
	Wall  int64 // rank wallclock
	GPU   int64 // @CUDA_EXEC_STRMxx stream totals
	Xfer  int64 // host-side Memcpy/Memset call-site totals
	Idle  int64 // @CUDA_HOST_IDLE
	MPI   int64 // DomainMPI call sites
	Stall int64 // command-queue submit stall
	// Energy is the attributed device energy in nanojoules, summed over
	// ranks; zero for jobs from unpowered runs.
	Energy int64

	// The job-level scalars of /jobs and /job/{id}, each the value of the
	// ipm.JobProfile method named.
	WallMax   int64 // longest rank wallclock (Wallclock)
	Declared  int   // ntasks, kept only when it exceeds Ranks (Expected)
	Errors    int64 // task error totals, else their entries' sums (TotalErrors)
	MonErrors int64 // monitor-internal recovered panics (MonitorErrors)

	// Sites holds the per call-site stats with the per-kernel pseudo
	// entries excluded — the exact filter Aggregate's call-site table and
	// Regress's site totals share. Kernels holds those pseudo entries
	// (@CUDA_EXEC_STRMxx:kernel) merged by kernel name across streams.
	// Both are sorted by name, one row per name. Imb is the per call-site
	// imbalance (max/avg over ranks), one row per distinct name, in
	// FuncTotals order; empty for single-rank jobs, which carry no
	// balance information.
	Sites   []WireSite
	Kernels []WireSite
	Imb     []WireImb
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

// EncodeWireJobs renders the body of a /shard/rollups response in the
// record codec's fields (wal.go): four counts over the whole list — jobs,
// tags, stats rows and imbalance rows — then each job in turn: id,
// command and tags; ranks, salvaged (0 or 1), warnings, bytes, lost, the
// seven rollup sums, wallmax, declared, errors and monitor errors, each a
// varint; the counts of its sites, kernels and imbalance rows; each site
// and then each kernel row as its name and the eight ipm.Stats fields in
// declaration order; each imbalance row as its name, max/avg as 8
// little-endian IEEE 754 bytes, and its worst job. The error is always
// nil.
func EncodeWireJobs(jobs []*Job) ([]byte, error) {
	var tags, rows, imb int
	for _, j := range jobs {
		tags, rows, imb = tags+len(j.Tags), rows+len(j.Sites)+len(j.Kernels), imb+len(j.Imb)
	}
	// The synthetic corpus takes about 31 bytes per job and row.
	b := appendUvarints(make([]byte, 0, 32*(len(jobs)+rows+imb)), len(jobs), tags, rows, imb)
	for _, j := range jobs {
		var salvaged int64
		if j.Salvaged {
			salvaged = 1
		}
		b = appendStrs(appendStr(appendStr(b, j.ID), j.Command), j.Tags)
		b = appendVarints(b, int64(j.Ranks), salvaged, int64(j.Warnings), int64(j.Bytes), int64(j.Lost),
			j.Wall, j.GPU, j.Xfer, j.Idle, j.MPI, j.Stall, j.Energy, j.WallMax, int64(j.Declared), j.Errors, j.MonErrors)
		b = appendUvarints(b, len(j.Sites), len(j.Kernels), len(j.Imb))
		for _, rows := range [2][]WireSite{j.Sites, j.Kernels} {
			for _, s := range rows {
				b = appendVarints(appendStr(b, s.Name), s.Count, int64(s.Total), int64(s.Min), int64(s.Max),
					s.Errors, s.Submits, int64(s.SubmitStall), s.Energy)
			}
		}
		for _, m := range j.Imb {
			b = appendStr(binary.LittleEndian.AppendUint64(appendStr(b, m.Name), math.Float64bits(m.MaxOverAvg)), m.WorstJob)
		}
	}
	return b, nil
}

// DecodeWireJobs parses a /shard/rollups body, refusing any byte string
// EncodeWireJobs would not have written.
//
// Decoding costs a few allocations per body, none per job: the jobs,
// tags and rows are cut from one slab each, and every id, tag and name
// is a substring of one copy of the body. The trade-off is retention: a
// job kept from a reply keeps that whole reply's memory alive. A mirror
// drops a full reply's jobs together at its next full reply, and a delta
// reply holds only the jobs that changed, so what it retains beyond its
// live jobs stays small.
func DecodeWireJobs(data []byte) ([]*Job, error) {
	r := reader{p: data, body: string(data)}
	// The fewest bytes each element takes: a job 22 (its two strings, tag
	// count, sixteen scalars and three row counts), a stats row 9 and an
	// imbalance row 10.
	n := r.count(22)
	jobs, out := make([]Job, n), make([]*Job, n)
	tags, rows, imb := make([]string, r.count(1)), make([]WireSite, r.count(9)), make([]WireImb, r.count(10))
	for i := range jobs {
		j := &jobs[i]
		j.ID, j.Command, j.Tags = r.str(), r.str(), r.strs(take(&r, &tags, r.count(1)))
		j.Ranks, j.Salvaged, j.Warnings, j.Bytes, j.Lost = int(r.varint()), r.flag(), int(r.varint()), int(r.varint()), int(r.varint())
		j.Wall, j.GPU, j.Xfer, j.Idle, j.MPI, j.Stall, j.Energy = r.varint(), r.varint(), r.varint(), r.varint(), r.varint(), r.varint(), r.varint()
		j.WallMax, j.Declared, j.Errors, j.MonErrors = r.varint(), int(r.varint()), r.varint(), r.varint()
		j.Sites, j.Kernels, j.Imb = take(&r, &rows, r.count(1)), take(&r, &rows, r.count(1)), take(&r, &imb, r.count(1))
		for _, rows := range [2][]WireSite{j.Sites, j.Kernels} {
			for k := range rows {
				s := &rows[k]
				s.Name, s.Count, s.Total, s.Min, s.Max = r.str(), r.varint(), time.Duration(r.varint()), time.Duration(r.varint()), time.Duration(r.varint())
				s.Errors, s.Submits, s.SubmitStall, s.Energy = r.varint(), r.varint(), time.Duration(r.varint()), r.varint()
			}
		}
		for k := range j.Imb {
			m := &j.Imb[k]
			m.Name, m.MaxOverAvg, m.WorstJob = r.str(), r.float(), r.str()
		}
		out[i] = j
	}
	if r.bad || len(r.p)+len(tags)+len(rows)+len(imb) != 0 {
		return nil, errors.New("profstore: wire rollups: not a job list EncodeWireJobs writes")
	}
	return out, nil
}

// take cuts the next n elements off the front of *slab: nil for none, as
// the encoded job held.
func take[T any](r *reader, slab *[]T, n int) (s []T) {
	if n > len(*slab) {
		r.fail()
	} else if n > 0 {
		s, *slab = (*slab)[:n:n], (*slab)[n:]
	}
	return s
}

func (r *reader) flag() bool {
	v := r.varint()
	if uint64(v) > 1 {
		r.fail()
	}
	return v == 1
}

func (r *reader) float() (v float64) {
	if len(r.p) < 8 {
		r.fail()
	} else {
		v, r.p = math.Float64frombits(binary.LittleEndian.Uint64(r.p)), r.p[8:]
	}
	return v
}

// MergeJobs unions job sets by id (the first set holding an id wins; see
// the wire image above for when replicas differ) and returns them
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
