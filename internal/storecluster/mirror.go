package storecluster

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
)

// The router's read path. Each router mirrors every peer's jobs and,
// inside every /jobs, /job/{id}, /agg or /regress, revalidates the mirror
// with one conditional leg per peer that can hold the answer:
// /shard/rollups?since=<epoch> answers "unchanged", "the jobs ingested
// since" or the full corpus (profstore.Store.RollupsSince). A corpus
// selector asks every peer; a single job id asks only the peers among
// its ring owners, since no other member can hold it. The mirror is never
// served without this query's successful revalidation of those peers, so
// reads stay as strict and as fresh as a full scatter; what a quiet
// cluster no longer pays is the re-fetch, re-decode and re-merge of
// every member's rollups per query. Reports are memoised under the
// mirror's version by the same profstore.Memo protocol a single node
// uses under its epoch.

// The /shard/rollups?since= reply carries its epoch and kind in headers,
// so "unchanged" is an empty body.
const (
	hdrRollupEpoch = "X-Ipm-Rollup-Epoch"
	hdrRollupKind  = "X-Ipm-Rollup-Kind"
)

// mirror is this router's copy of the cluster's jobs: the profstore
// JobSource the routed queries are served from, and the Corpus its memo
// runs over.
type mirror struct {
	c    *Cluster
	memo profstore.Memo

	mu      sync.Mutex
	peers   []profstore.RollupMirror // index-aligned with c.peers
	localEp uint64                   // local store epoch last folded into gen
	// gen is the version token: it moves whenever any epoch in the vector
	// (local, peer₁…peerₙ) did. merged is the id-sorted union corpus,
	// rebuilt lazily when gen has left mergedGen behind.
	gen, mergedGen uint64
	merged         []*profstore.Job
	// log[g%genLogLen] records what moved gen to g, for the last genLogLen
	// generations (see Since).
	log [genLogLen]genChange

	revalidations [3]*telemetry.VecCell // by profstore.RollupKind
	deltaJobs     atomic.Int64
}

// genLogLen is how many generations the mirror's change log remembers,
// like the store's change log: a memo accumulator older than that is
// rebuilt, never wrong.
const genLogLen = 256

// genChange is what one generation bump changed: the jobs of a peer's
// delta reply, or a full reply (full), beside the local store epoch the
// mirror had folded in at that generation.
type genChange struct {
	localEp uint64
	jobs    []*profstore.Job
	full    bool
}

// bump moves gen on, recording what moved it. The caller holds m.mu.
func (m *mirror) bump(jobs []*profstore.Job, full bool) {
	m.gen++
	m.log[m.gen%genLogLen] = genChange{localEp: m.localEp, jobs: jobs, full: full}
}

// Epoch implements profstore.Corpus: the mirror's version, with the
// local store's current epoch folded in.
func (m *mirror) Epoch() uint64 {
	ep := m.c.cfg.Store.Epoch()
	m.mu.Lock()
	defer m.mu.Unlock()
	if ep != m.localEp {
		m.localEp = ep
		m.bump(nil, false)
	}
	return m.gen
}

// Since implements profstore.Corpus: the ids whose winning copy may have
// changed after generation g — the local store's changes since the epoch
// folded in at g, and the jobs of every peer delta applied since. A full
// reply since g, or a g the log no longer reaches, makes it unavailable.
func (m *mirror) Since(g uint64) ([]string, bool) {
	m.mu.Lock()
	if g > m.gen || m.gen-g >= genLogLen {
		m.mu.Unlock()
		return nil, false
	}
	localEp := m.log[g%genLogLen].localEp
	var ids []string
	for v := g + 1; v <= m.gen; v++ {
		ch := &m.log[v%genLogLen]
		if ch.full {
			m.mu.Unlock()
			return nil, false
		}
		for _, j := range ch.jobs {
			ids = append(ids, j.ID)
		}
	}
	m.mu.Unlock()
	local, ok := m.c.cfg.Store.Since(localEp)
	if !ok {
		return nil, false
	}
	if len(ids) == 0 {
		return local, true
	}
	ids = append(ids, local...)
	slices.Sort(ids)
	return slices.Compact(ids), true
}

// winner is the copy of job id the union corpus holds: the local one if
// there is one, else the first peer's in canonical order.
func (m *mirror) winner(id string) *profstore.Job {
	if j := m.c.cfg.Store.Get(id); j != nil {
		return j
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.peers {
		if j := m.peers[i].Get(id); j != nil {
			return j
		}
	}
	return nil
}

// Select implements profstore.Corpus over the union corpus: local jobs
// first, then the peers in canonical order, so every router resolves a
// replica set to the same copy. A single id is one lookup of that
// winner.
//
// A rebuild snapshots the peer sets under the lock and merges outside it,
// so the revalidations of concurrent queries do not queue behind a sort of
// the whole corpus; the result is kept only if gen is still the one it
// was built for.
func (m *mirror) Select(sel string) []*profstore.Job {
	if profstore.IsIDSelector(sel) {
		if j := m.winner(sel); j != nil {
			return []*profstore.Job{j}
		}
		return nil
	}
	m.mu.Lock()
	merged, gen := m.merged, m.gen
	var sets [][]*profstore.Job
	if merged == nil || m.mergedGen != gen {
		merged = nil
		sets = make([][]*profstore.Job, len(m.peers)+1)
		for i := range m.peers {
			sets[i+1] = m.peers[i].Jobs()
		}
	}
	m.mu.Unlock()
	if merged == nil {
		sets[0] = m.c.cfg.Store.Select("")
		merged = profstore.MergeJobs(sets...)
		m.mu.Lock()
		if m.gen == gen {
			m.merged, m.mergedGen = merged, gen
		}
		m.mu.Unlock()
	}
	return profstore.FilterJobs(merged, sel)
}

// apply folds peer i's reply to since=<since> into the mirror. It
// reports false when a concurrent query's reply moved that peer's
// mirror while this one was in flight: the two replies are unordered, so
// the caller asks again from the new epoch. An "unchanged" reply needs
// no such care — the member was still at since after this query began,
// so whatever the mirror moved to is newer still.
func (m *mirror) apply(i int, since uint64, r profstore.Rollups) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.Kind != profstore.RollupUnchanged {
		if m.peers[i].Epoch != since {
			return false
		}
		m.peers[i].Apply(r)
		if r.Kind == profstore.RollupFull {
			m.bump(nil, true)
		} else {
			m.bump(r.Jobs, false)
		}
		if r.Kind == profstore.RollupDelta {
			m.deltaJobs.Add(int64(len(r.Jobs)))
		}
	}
	m.revalidations[r.Kind].Add(1)
	return true
}

// revalidatePeer brings the mirror of peer i up to the peer's present
// with one conditional leg, first (when not nil) its request for since.
func (m *mirror) revalidatePeer(op string, i int, peer string, since uint64, first *http.Request) error {
	for {
		start := time.Now()
		body, hdr, err := m.c.peerGet(peer, sincePath(since), first)
		first = nil
		m.c.span("cluster/"+op, peer, start, int64(len(body)))
		if err != nil {
			return err
		}
		r, err := decodeRollups(hdr, body)
		if err != nil {
			return fmt.Errorf("%s: %w", peer, err)
		}
		if m.apply(i, since, r) {
			if r.Kind == profstore.RollupFull {
				m.c.span("cluster/resync", peer, start, int64(len(body)))
			}
			return nil
		}
		m.mu.Lock()
		since = m.peers[i].Epoch
		m.mu.Unlock()
	}
}

func sincePath(since uint64) string { return "/shard/rollups?since=" + strconv.FormatUint(since, 10) }

// revalidate is the freshness step of every mirror-served query: each
// of peers (indices into c.peers) must answer, or the query fails (reads
// are strict — a mirror nobody vouched for could silently miss that
// peer's newest jobs).
func (m *mirror) revalidate(op string, peers []int) error {
	since, paths := make([]uint64, len(m.peers)), make([]string, len(m.peers))
	m.mu.Lock()
	for _, i := range peers {
		since[i] = m.peers[i].Epoch
		paths[i] = sincePath(since[i])
	}
	m.mu.Unlock()
	return m.c.fanOut(peers, paths, func(i int, first *http.Request) error {
		return m.revalidatePeer(op, i, m.c.peers[i], since[i], first)
	})
}

// handleShardRollups is the member side of the router's read path: the
// conditional whole-corpus reply the mirror revalidates with.
func (c *Cluster) handleShardRollups(w http.ResponseWriter, r *http.Request) {
	since, err := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad since=%q", r.URL.Query().Get("since")), http.StatusBadRequest)
		return
	}
	reply := c.cfg.Store.RollupsSince(since)
	w.Header().Set(hdrRollupEpoch, strconv.FormatUint(reply.Epoch, 10))
	w.Header().Set(hdrRollupKind, reply.Kind.String())
	if reply.Kind == profstore.RollupUnchanged {
		return
	}
	body, _ := profstore.EncodeWireJobs(reply.Jobs) // never fails
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body)
}

func decodeRollups(hdr http.Header, body []byte) (r profstore.Rollups, err error) {
	if r.Epoch, err = strconv.ParseUint(hdr.Get(hdrRollupEpoch), 10, 64); err != nil {
		return r, fmt.Errorf("bad %s: %w", hdrRollupEpoch, err)
	}
	if r.Kind, err = profstore.ParseRollupKind(hdr.Get(hdrRollupKind)); err != nil {
		return r, err
	}
	if r.Kind != profstore.RollupUnchanged {
		r.Jobs, err = profstore.DecodeWireJobs(body)
	}
	return r, err
}

// Jobs implements profstore.JobSource.
func (m *mirror) Jobs(sel string) ([]*profstore.Job, error) {
	if err := m.revalidate("jobs", m.c.peersFor(sel)); err != nil {
		return nil, err
	}
	return m.Select(sel), nil
}

// Aggregate implements profstore.JobSource. A single id is folded
// straight from its winning copy: the memo would only add lock round
// trips, since the write a reader waits for has always moved the version.
func (m *mirror) Aggregate(opts profstore.AggOptions) (*profstore.AggReport, error) {
	if err := m.revalidate("agg", m.c.peersFor(opts.Sel)); err != nil {
		return nil, err
	}
	if profstore.IsIDSelector(opts.Sel) {
		return profstore.AggregateJobs(m.Select(opts.Sel), opts), nil
	}
	return m.memo.Aggregate(m, opts), nil
}

// Regress implements profstore.JobSource: both sides, whatever their
// selectors, come out of one revalidation of every peer.
func (m *mirror) Regress(opts profstore.RegressOptions) (*profstore.RegressReport, error) {
	if err := m.revalidate("regress", m.c.all); err != nil {
		return nil, err
	}
	return m.memo.Regress(m, opts), nil
}
