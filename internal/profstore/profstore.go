// Package profstore is the center-wide profile store: the ingestion and
// query layer that turns single-job IPM profiles into workload-level
// views (paper Section II — IPM is deployed on every job at NERSC, and
// the value comes from aggregating thousands of XML logs).
//
// The store is sharded for concurrent ingest (per-shard RWMutex keyed by
// job id hash) and durable via a checksummed write-ahead log: a
// restarted server loads the newest snapshot, replays the WAL and
// recovers its exact corpus, and because every query output is
// deterministically ordered, the recovered store answers /agg and
// /regress byte-identically to the pre-restart one. Torn or corrupt
// records are detected by the frame CRC, skipped and counted; a WAL
// write or fsync failure degrades the store to an observable read-only
// mode instead of crashing or acking data that never reached disk (see
// DESIGN.md "Durability & recovery").
//
// Profiles enter through the tolerant parser (internal/ipmparse
// semantics): a truncated or corrupt log from a crashed job is salvaged
// rather than rejected, and the concessions made are counted and
// surfaced per job and in the Prometheus metrics.
package profstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipmgo/internal/ipm"
)

// numShards is the number of lock shards. A power of two so the shard
// index is a mask of the id hash; 16 comfortably exceeds the core counts
// the ingest benchmarks run on.
const numShards = 16

// Write failures that are not the document's fault. All are
// sentinel-wrapped so callers (the HTTP layer, the soak harness) can map
// them with errors.Is; IsUnavailable matches any of them.
var (
	// ErrClosed is returned by Ingest and Snapshot after Close.
	ErrClosed = errors.New("profstore: store is closed")
	// ErrReadOnly is returned once a WAL append or fsync has failed:
	// the corpus stays queryable, but nothing further is acknowledged.
	ErrReadOnly = errors.New("profstore: store is read-only")
	// ErrUnavailable is a write that may succeed on retry: an owner that
	// could not be reached, a cluster write below its quorum.
	ErrUnavailable = errors.New("profstore: unavailable")
)

// IsUnavailable reports whether an ingest failure is the store's (or the
// cluster's) fault rather than the document's: POST /ingest answers it
// 503 with Retry-After, any other failure 400.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrReadOnly) || errors.Is(err, ErrClosed)
}

// WriteSyncer is the append surface of the WAL: writes plus fsync.
// *os.File satisfies it, and so does faultsim.FaultyWriter — the
// disk-fault injection seam plugs in through StoreOptions.WrapWAL
// without either package importing the other's interface.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// shard is one lock-striped partition of the corpus.
type shard struct {
	mu   sync.RWMutex
	jobs map[string]*Job
}

// Store is the sharded, concurrency-safe profile corpus.
type Store struct {
	shards [numShards]shard

	// lifeMu is the lifecycle lock: every logged ingest holds it shared
	// for the whole WAL-append + shard-insert sequence, while Close and
	// Snapshot hold it exclusive — so closing can never yank the WAL
	// file out from under an in-flight Add (it waits, then later Adds
	// get ErrClosed), and a snapshot sees a frozen corpus/WAL pair.
	lifeMu sync.RWMutex
	closed bool

	// wal guards the append-only log; nil when the store is in-memory
	// only. Appends are serialised independently of the shard locks so
	// ingests into different shards only contend on the file write.
	// walW is the append path — the raw file, or the fault-injection
	// wrapper from StoreOptions.WrapWAL.
	walMu     sync.Mutex
	wal       *os.File
	walW      WriteSyncer
	walPath   string
	syncEvery int // appends per fsync; 1 = fsync every append
	unsynced  int // appends since the last fsync (guarded by walMu)

	// Read-only degradation: a failed WAL append or fsync flips the
	// store read-only rather than crashing or acknowledging data that
	// never became durable. Queries keep working.
	readonly atomic.Bool
	roReason atomic.Value // string

	// Snapshot + compaction state (snapshot.go).
	snapSeq      atomic.Uint64 // seq of the live snapshot (0 = none)
	snapshots    atomic.Int64  // snapshots completed by this process
	snapErrors   atomic.Int64  // background compactions that failed
	walAppends   atomic.Int64  // WAL records since the last snapshot
	walErrors    atomic.Int64  // failed WAL writes/fsyncs/truncates
	compactEvery int
	compacting   atomic.Bool
	onSnapshot   func(SnapshotInfo, error)

	recoveredAtOpen int
	skippedAtOpen   int

	jobs     atomic.Int64 // corpus size (gauge)
	ranks    atomic.Int64 // total rank snapshots held (gauge)
	ingests  atomic.Int64 // successful ingests, including replacements
	salvaged atomic.Int64 // ingests the tolerant parser had to salvage
	replaced atomic.Int64 // ingests that replaced an existing job id
	bytesIn  atomic.Int64 // XML bytes successfully ingested

	// forceDecode is a test hook: it skips the scanner, so every ingest
	// reads through DecodeXMLTolerant and tests can compare the two
	// lexers end to end on inputs the scanner would accept.
	forceDecode bool

	// epoch advances after every shard insert; the memo cache (memo.go)
	// keys cached /agg and /regress reports by it.
	epoch atomic.Uint64
	memo  Memo

	// The change log (see changedSince in wire.go): changed[e%changeLogLen]
	// is the id whose insert moved the epoch to e, for the epochs in
	// (logBase, epoch]. logMu orders the bump with its log entry.
	logMu   sync.Mutex
	logBase uint64
	changed [changeLogLen]string
}

// changeLogLen is how many epoch bumps the change log remembers: the
// most writes a member can take between two queries of one router and
// still answer that router's next revalidation with a delta. 4 KB per
// store; a constant, because a reply outside the window is only slower
// (the full corpus), never wrong.
const changeLogLen = 256

// New returns an in-memory store (no WAL).
func New() *Store {
	s := &Store{memo: Memo{encodeOnce: true}}
	for i := range s.shards {
		s.shards[i].jobs = make(map[string]*Job)
	}
	s.stampEpoch()
	return s
}

// stampEpoch starts the store's generation: the epoch and the change log
// begin at a boot stamp no other generation — of this process or of an
// earlier one at the same address — has counted through. Every store is
// stamped, WAL-backed or not: a cluster member run without -wal restarts
// empty, and a router still holding its pre-restart rollups must be told
// "full", not have its old epoch validated once the new store has counted
// up to it. Mixing wall-clock nanoseconds with a per-process counter keeps
// the generations' epoch ranges disjoint.
func (s *Store) stampEpoch() {
	stamp := uint64(time.Now().UnixNano())<<8 | bootEpochs.Add(1)&0xff
	s.epoch.Store(stamp)
	s.logBase = stamp
}

// StoreOptions configures a durable store opened with OpenStore.
type StoreOptions struct {
	// WrapWAL, when non-nil, wraps the WAL append path — the disk-fault
	// injection seam. faultsim.(*DiskPlan).Wrap satisfies it
	// structurally.
	WrapWAL func(WriteSyncer) WriteSyncer
	// SyncEvery is the fsync cadence in appends. Values <= 1 (including
	// the zero value) fsync every append: an acknowledged ingest is on
	// disk before the response leaves. Larger values trade the tail of
	// durability against machine crashes for append throughput; process
	// kills (SIGKILL) lose nothing either way, the page cache survives.
	SyncEvery int
	// CompactEvery, when > 0, snapshots the corpus and truncates the
	// WAL in the background once that many records have accumulated
	// since the last snapshot, bounding replay cost at restart.
	CompactEvery int
	// OnSnapshot observes completed (or failed) background compactions.
	OnSnapshot func(SnapshotInfo, error)
}

// RecoveryStats describes what OpenStore rebuilt the corpus from.
type RecoveryStats struct {
	Recovered    int    // records re-ingested (snapshot + WAL)
	Skipped      int    // torn, corrupt or unparseable records dropped
	SnapshotSeq  uint64 // snapshot recovery started from (0 = none)
	SnapshotJobs int    // records recovered from that snapshot
	WALRecords   int    // structurally valid records seen in the WAL
}

// OpenStore opens the durable store at path, loading the newest
// snapshot and replaying the write-ahead log first. A torn final record
// (a crash mid-append) is skipped and counted, mirroring how the
// tolerant parser treats a torn XML log. A snapshot or WAL holding a
// version-1 frame fails the open, naming the file and leaving it as it
// is. opts sets durability, compaction and fault injection.
func OpenStore(path string, opts StoreOptions) (*Store, RecoveryStats, error) {
	s := New()
	s.walPath = path
	s.syncEvery = opts.SyncEvery
	if s.syncEvery < 1 {
		s.syncEvery = 1
	}
	s.compactEvery = opts.CompactEvery
	s.onSnapshot = opts.OnSnapshot
	var st RecoveryStats

	// Newest intact snapshot first: it holds everything the WAL no
	// longer does.
	if seq, snapPath := latestSnapshot(path); snapPath != "" {
		data, err := os.ReadFile(snapPath)
		if err != nil {
			return nil, st, fmt.Errorf("profstore: reading snapshot: %w", err)
		}
		rec, skip, _, err := s.replayImage(data)
		if err != nil {
			return nil, st, fmt.Errorf("profstore: snapshot %s %w", snapPath, err)
		}
		st.SnapshotSeq, st.SnapshotJobs = seq, rec
		st.Recovered += rec
		st.Skipped += skip
		s.snapSeq.Store(seq)
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, st, fmt.Errorf("profstore: opening WAL: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, st, fmt.Errorf("profstore: reading WAL: %w", err)
	}
	rec, skip, records, err := s.replayImage(data)
	if err != nil {
		f.Close()
		return nil, st, fmt.Errorf("profstore: WAL %s %w", path, err)
	}
	st.Recovered += rec
	st.Skipped += skip
	st.WALRecords = records
	// io.ReadAll left the offset at EOF — exactly where appends resume.
	s.wal = f
	s.walW = f
	if opts.WrapWAL != nil {
		s.walW = opts.WrapWAL(f)
	}
	// Replayed records count toward the compaction threshold: a server
	// that restarts mid-interval still compacts on schedule.
	s.walAppends.Store(int64(records))
	s.recoveredAtOpen, s.skippedAtOpen = st.Recovered, st.Skipped
	// Replay counted the epoch on from New's boot stamp, so the recovered
	// store shares no epoch with the one that wrote the log: no (epoch,
	// rollup) pair validates across the restart.
	return s, st, nil
}

// bootEpochs distinguishes stores stamped by the same process within one
// clock tick (see stampEpoch).
var bootEpochs atomic.Uint64

// Epoch returns the store's current corpus epoch: it changes after every
// insert and never repeats across restarts or reopens.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Close flushes and releases the WAL file, if any. Concurrent ingests
// in flight finish first; later ones return ErrClosed. Idempotent.
func (s *Store) Close() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	var err error
	if !s.readonly.Load() {
		err = s.walW.Sync()
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	s.walW = nil
	return err
}

// setReadOnly degrades the store after a WAL failure; the first reason
// wins.
func (s *Store) setReadOnly(reason string) {
	if s.readonly.CompareAndSwap(false, true) {
		s.roReason.Store(reason)
	}
}

func (s *Store) readOnlyErr() error {
	if reason, _ := s.roReason.Load().(string); reason != "" {
		return fmt.Errorf("%w (%s)", ErrReadOnly, reason)
	}
	return ErrReadOnly
}

// ReadOnly reports whether the store has degraded to read-only mode,
// and the triggering failure.
func (s *Store) ReadOnly() (bool, string) {
	if !s.readonly.Load() {
		return false, ""
	}
	reason, _ := s.roReason.Load().(string)
	return true, reason
}

// walAppend writes one framed record and applies the fsync policy. Any
// write or sync failure flips the store read-only: the record may be
// torn on disk (replay detects and skips it via the CRC) and nothing
// further gets acknowledged against a log that can no longer hold it.
func (s *Store) walAppend(rec []byte) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if _, err := s.walW.Write(rec); err != nil {
		s.walErrors.Add(1)
		s.setReadOnly(fmt.Sprintf("WAL append failed: %v", err))
		return fmt.Errorf("profstore: appending WAL: %v: %w", err, ErrReadOnly)
	}
	s.unsynced++
	if s.unsynced >= s.syncEvery {
		if err := s.walW.Sync(); err != nil {
			s.walErrors.Add(1)
			s.setReadOnly(fmt.Sprintf("WAL fsync failed: %v", err))
			return fmt.Errorf("profstore: syncing WAL: %v: %w", err, ErrReadOnly)
		}
		s.unsynced = 0
	}
	s.walAppends.Add(1)
	return nil
}

// DeriveID returns the deterministic content-derived job id used when
// the client does not supply one: FNV-1a over the XML bytes. The same
// document always lands under the same id, making ingest idempotent.
func DeriveID(xml []byte) string {
	h := fnv.New64a()
	h.Write(xml)
	return fmt.Sprintf("j%016x", h.Sum64())
}

// normTags sorts, deduplicates and drops empty tags.
func normTags(tags []string) []string {
	out := make([]string, 0, len(tags))
	for _, t := range tags {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return slicesCompact(out)
}

func slicesCompact(in []string) []string {
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func (s *Store) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &s.shards[h.Sum32()&(numShards-1)]
}

// Ingest parses one IPM XML document tolerantly and adds it to the
// corpus (and WAL). An empty id derives one from the content. Returns
// the stored job; the errors are an unrecoverable parse (no ipm_log
// root at all), a WAL record over maxWALPayload bytes, ErrClosed after
// Close, and ErrReadOnly once a WAL failure has degraded the store.
func (s *Store) Ingest(xml []byte, id string, tags []string) (*Job, error) {
	job, err := s.ingest(xml, id, tags, true)
	if err == nil {
		s.maybeCompact()
	}
	return job, err
}

// maybeCompact triggers one background snapshot when the WAL has grown
// past the compaction threshold. At most one snapshot runs at a time;
// failures are counted and surfaced through OnSnapshot, never fatal to
// the triggering ingest.
func (s *Store) maybeCompact() {
	if s.compactEvery <= 0 || s.walAppends.Load() < int64(s.compactEvery) {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		info, err := s.Snapshot()
		if err != nil {
			s.snapErrors.Add(1)
		}
		if s.onSnapshot != nil {
			s.onSnapshot(info, err)
		}
	}()
}

// ingest is the one-pass streaming write path: a prescan settles the
// content-hash id, the WAL record is encoded into the pooled buffer, then
// a single scan over the bytes produces the rollup and the job metadata.
// Documents off the scanner's fast-path grammar — non-ASCII, entities,
// truncation, decoder oddities — are read again by DecodeXMLTolerant
// into the same sink; both lexers share ipm's reading rules, so the
// route changes the cost, never the rollup.
func (s *Store) ingest(xml []byte, id string, tags []string, logIt bool) (*Job, error) {
	if logIt {
		// Shared lifecycle lock for the WAL-append + insert sequence;
		// replay (logIt=false) runs single-threaded inside OpenStore.
		s.lifeMu.RLock()
		defer s.lifeMu.RUnlock()
		if s.closed {
			return nil, ErrClosed
		}
		if s.readonly.Load() {
			return nil, s.readOnlyErr()
		}
	}

	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)

	if id == "" {
		id = formatID(prescanHash(xml)) // == DeriveID(xml)
	}
	tags = normTags(tags)
	// The record is encoded before the read: one larger than replay
	// accepts is refused up front, and the store stays writable.
	var frame []byte
	if logIt && s.wal != nil {
		frame = appendRecord(append(sc.walBuf[:0], make([]byte, walHeaderSize)...), id, tags, xml)
		if n := len(frame) - walHeaderSize; n > maxWALPayload {
			return nil, fmt.Errorf("profstore: ingest: WAL record of %d bytes exceeds %d", n, maxWALPayload)
		}
		sc.walBuf = frame[:0] // keep the grown buffer for the next ingest
	}
	sc.sink.reset()
	resetReport(&sc.rep)
	var ok bool
	var err error
	if !s.forceDecode {
		ok, err = ipm.ScanXMLTolerant(xml, sc.sink, &sc.rep)
	}
	if !ok {
		sc.sink.reset()
		resetReport(&sc.rep)
		err = ipm.DecodeXMLTolerant(bytes.NewReader(xml), sc.sink, &sc.rep)
	}
	if err != nil {
		return nil, fmt.Errorf("profstore: ingest: %w", err)
	}
	job := new(Job)
	*job = sc.sink.build(id)
	job.Command, job.Ranks = sc.sink.command, sc.sink.tasks
	job.ID, job.Tags, job.Bytes = id, tags, len(xml)
	job.Warnings = len(sc.rep.Warnings)
	job.Salvaged = sc.rep.Truncated || job.Warnings > 0

	// WAL before store: a record that made it to the log is the ingest;
	// the in-memory insert is recoverable from it but not vice versa.
	if frame != nil {
		if err := s.walAppend(sealFrame(frame)); err != nil {
			return nil, err
		}
	}

	sh := s.shardFor(id)
	sh.mu.Lock()
	prev, existed := sh.jobs[id]
	sh.jobs[id] = job
	sh.mu.Unlock()
	// Invalidate cached aggregates only after the job is visible, so a
	// cache miss (or a RollupsSince) that follows this bump always sees
	// the new corpus.
	s.logMu.Lock()
	s.changed[s.epoch.Add(1)%changeLogLen] = id
	s.logMu.Unlock()

	s.ingests.Add(1)
	s.bytesIn.Add(int64(len(xml)))
	if job.Salvaged {
		s.salvaged.Add(1)
	}
	if existed {
		s.replaced.Add(1)
		s.ranks.Add(int64(job.Ranks - prev.Ranks))
	} else {
		s.jobs.Add(1)
		s.ranks.Add(int64(job.Ranks))
	}
	return job, nil
}

// Get returns the job with the given id, or nil.
func (s *Store) Get(id string) *Job {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.jobs[id]
}

// Len returns the corpus size.
func (s *Store) Len() int { return int(s.jobs.Load()) }

// RankCount returns the total rank snapshots held.
func (s *Store) RankCount() int { return int(s.ranks.Load()) }

// Ingests, Salvaged, Replaced and IngestedBytes expose the ingest
// counters for metrics.
func (s *Store) Ingests() int64       { return s.ingests.Load() }
func (s *Store) Salvaged() int64      { return s.salvaged.Load() }
func (s *Store) Replaced() int64      { return s.replaced.Load() }
func (s *Store) IngestedBytes() int64 { return s.bytesIn.Load() }

// Durability counters for metrics and the soak harness.
func (s *Store) WALErrors() int64      { return s.walErrors.Load() }
func (s *Store) Snapshots() int64      { return s.snapshots.Load() }
func (s *Store) SnapshotErrors() int64 { return s.snapErrors.Load() }
func (s *Store) SnapshotSeq() uint64   { return s.snapSeq.Load() }

// PendingWALRecords is the number of WAL records a restart would replay
// (records appended or replayed since the last snapshot).
func (s *Store) PendingWALRecords() int64 { return s.walAppends.Load() }

// RecoveryCounts reports what OpenStore rebuilt this store from.
func (s *Store) RecoveryCounts() (recovered, skipped int) {
	return s.recoveredAtOpen, s.skippedAtOpen
}

// matcherFor compiles a job selector (see Select) into a predicate.
// Shared by Store.Select and the router-side FilterJobs so cluster
// scatter-gather filters jobs exactly the way a single node would.
func matcherFor(sel string) func(*Job) bool {
	switch {
	case sel == "":
		return func(*Job) bool { return true }
	case strings.HasPrefix(sel, "tag:"):
		want := strings.TrimPrefix(sel, "tag:")
		return func(j *Job) bool {
			for _, t := range j.Tags {
				if t == want {
					return true
				}
			}
			return false
		}
	case strings.HasPrefix(sel, "cmd:"):
		want := strings.TrimPrefix(sel, "cmd:")
		return func(j *Job) bool { return j.Command == want }
	default:
		return func(j *Job) bool { return j.ID == sel }
	}
}

// IsIDSelector reports whether sel names a single job by id (see Select).
func IsIDSelector(sel string) bool {
	return sel != "" && !strings.HasPrefix(sel, "tag:") && !strings.HasPrefix(sel, "cmd:")
}

// Select resolves a job selector to the matching jobs, sorted by id —
// the deterministic iteration order every aggregate is computed in.
// Selectors:
//
//	""          every job
//	"tag:T"     jobs carrying tag T
//	"cmd:C"     jobs whose command is C
//	anything    the single job with that id (empty result if absent)
func (s *Store) Select(sel string) []*Job {
	if IsIDSelector(sel) {
		// Single-id selector: direct shard lookup instead of a scan.
		if j := s.Get(sel); j != nil {
			return []*Job{j}
		}
		return nil
	}
	match := matcherFor(sel)
	out := make([]*Job, 0, s.Len()) // a capacity hint: the corpus size
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, j := range sh.jobs {
			if match(j) {
				out = append(out, j)
			}
		}
		sh.mu.RUnlock()
	}
	sortByID(out)
	return out
}

// sortByID sorts jobs by id.
func sortByID(jobs []*Job) {
	slices.SortFunc(jobs, func(a, b *Job) int { return strings.Compare(a.ID, b.ID) })
}

// List returns every job's metadata, sorted by id.
func (s *Store) List() []*Job { return s.Select("") }
