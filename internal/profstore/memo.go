package profstore

import (
	"sync"
	"sync/atomic"
)

// Version-keyed memo cache for /agg and /regress, over incremental
// accumulators.
//
// A Corpus carries a version token that moves whenever the jobs Select
// would walk change: the store's epoch counter, which advances after
// every shard insert, or a cluster router's mirror generation, which
// advances whenever any epoch in its (local, peer₁…peerₙ) vector did. A
// cached report is valid only for the version it was computed under; the
// first lookup after a change misses. To never cache a result that
// straddles a change, the protocol is capture-compute-recheck:
//
//  1. capture the version BEFORE reading any job,
//  2. compute the report,
//  3. store it only if the version is still the captured one.
//
// If an ingest landed anywhere in between, the recheck fails and the
// (possibly mid-ingest) report is returned to the caller but not cached
// — correct for that caller (a plain walk at that moment could have seen
// the same corpus) and invisible to later ones. On a quiescent corpus the
// cache therefore always serves exactly what a fresh walk would produce,
// which keeps /agg and /regress byte-identical under concurrency, across
// WAL recovery and from every router of a cluster.
//
// A miss does not re-walk the corpus. Each job selector has an
// accumulator (accum.go) that moves forward by the ids Since names, and
// renders the report; only when the corpus cannot name them (its change
// log has moved on, or the version is from another generation) is it
// rebuilt, by the same fold started from empty over Select. Single-id
// selectors get no accumulator: their Select is one lookup.
//
// Cached reports are shared between callers: they are never mutated after
// they are rendered, and on a single node each is encoded to JSON at most
// once.

// Corpus is the job source the memoised queries run over: *Store on a
// single node, the router's mirror of every member in a cluster.
type Corpus interface {
	// Epoch returns the current version token. Select called after it
	// must see every change the token accounts for (it may see newer
	// ones: the recheck keeps those out of the cache).
	Epoch() uint64
	// Select resolves a job selector (see Store.Select), sorted by id,
	// into a slice the caller owns.
	Select(sel string) []*Job
	// Since returns the ids of the jobs changed after version ver — every
	// change up to the version Epoch returned before the call, and
	// possibly later ones — or ok=false when it cannot say: ver is older
	// than the change log reaches, or belongs to another generation.
	Since(ver uint64) (ids []string, ok bool)
}

// memoKey identifies one cacheable query.
type memoKey struct {
	kind string // "agg" or "regress"
	a, b string // selectors
	n    int    // TopN (agg)
	th   float64
}

// Memo caches reports under the corpus version they were computed from,
// and keeps the accumulators they are rendered from. The zero value is
// empty.
type Memo struct {
	mu   sync.Mutex
	ver  uint64
	m    map[memoKey]any
	accs []*accum // most recently used first, at most maxAccums

	// encodeOnce gives every report an encodedBody, so the server sends
	// the bytes of its first encoding on every hit. A single node's memo
	// sets it; a router's does not (see DESIGN.md, "Memo (incremental
	// aggregation)").
	encodeOnce bool

	hits, deltas, fulls atomic.Int64
}

// lookup returns the cached report for key if one was stored under ver.
func (m *Memo) lookup(ver uint64, key memoKey) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ver == ver && m.m != nil {
		if rep, ok := m.m[key]; ok {
			m.hits.Add(1)
			return rep, true
		}
	}
	return nil, false
}

// store caches rep under key iff c's version is still ver (see the
// protocol above). Advancing to a new version drops every older entry.
func (m *Memo) store(c Corpus, ver uint64, key memoKey, rep any) {
	if c.Epoch() != ver {
		return // a change raced the computation; do not cache
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c.Epoch() != ver {
		return
	}
	if m.ver != ver || m.m == nil {
		m.ver = ver
		m.m = make(map[memoKey]any)
	}
	m.m[key] = rep
}

// Stats returns how many lookups the cache answered (hits), and how many
// misses moved an accumulator by the changed ids (deltas) or folded the
// selection from empty (fulls).
func (m *Memo) Stats() (hits, deltas, fulls int64) {
	return m.hits.Load(), m.deltas.Load(), m.fulls.Load()
}

// accumFor returns sel's accumulator brought up to c's present, locked,
// and whether it had to be rebuilt; the caller unlocks it. A single-id
// selector gets a fresh one-shot fold.
func (m *Memo) accumFor(c Corpus, sel string) (a *accum, rebuilt bool) {
	if IsIDSelector(sel) {
		a = foldJobs(c.Select(sel))
		a.mu.Lock()
		return a, true
	}
	m.mu.Lock()
	i := 0
	for i < len(m.accs) && m.accs[i].sel != sel {
		i++
	}
	switch {
	case i < len(m.accs):
		a = m.accs[i]
	case len(m.accs) < maxAccums:
		m.accs = append(m.accs, nil)
		fallthrough
	default:
		i = len(m.accs) - 1 // the least recently used makes room
		a = newAccum(sel)
	}
	copy(m.accs[1:i+1], m.accs[:i])
	m.accs[0] = a
	m.mu.Unlock()
	a.mu.Lock()
	return a, a.advance(c)
}

// count records a miss by how it was answered.
func (m *Memo) count(rebuilt bool) {
	if rebuilt {
		m.fulls.Add(1)
	} else {
		m.deltas.Add(1)
	}
}

// Aggregate answers opts over c, from the cache when c has not changed
// since the same query last ran. The returned report is shared and must
// not be mutated.
func (m *Memo) Aggregate(c Corpus, opts AggOptions) *AggReport {
	if opts.TopN <= 0 {
		opts.TopN = 10
	}
	key := memoKey{kind: "agg", a: opts.Sel, n: opts.TopN}
	ver := c.Epoch()
	if rep, ok := m.lookup(ver, key); ok {
		return rep.(*AggReport)
	}
	a, rebuilt := m.accumFor(c, opts.Sel)
	rep := a.aggReport(opts)
	a.mu.Unlock()
	if m.encodeOnce {
		rep.body = new(encodedBody)
	}
	m.count(rebuilt)
	m.store(c, ver, key, rep)
	return rep
}

// Regress compares the base selection of c against the head selection,
// cached like Aggregate.
func (m *Memo) Regress(c Corpus, opts RegressOptions) *RegressReport {
	if opts.Threshold <= 0 {
		opts.Threshold = 10
	}
	key := memoKey{kind: "regress", a: opts.Base, b: opts.Head, th: opts.Threshold}
	ver := c.Epoch()
	if rep, ok := m.lookup(ver, key); ok {
		return rep.(*RegressReport)
	}
	// Two accumulators are locked in selector order, so concurrent
	// comparisons cannot deadlock.
	first, second := opts.Base, opts.Head
	if second < first {
		first, second = second, first
	}
	a1, rebuilt := m.accumFor(c, first)
	a2 := a1
	if second != first {
		var r2 bool
		a2, r2 = m.accumFor(c, second)
		rebuilt = rebuilt || r2
	}
	base, head := a1, a2
	if opts.Base != first {
		base, head = a2, a1
	}
	rep := regressReport(base, head, opts)
	a1.mu.Unlock()
	if a2 != a1 {
		a2.mu.Unlock()
	}
	if m.encodeOnce {
		rep.body = new(encodedBody)
	}
	m.count(rebuilt)
	m.store(c, ver, key, rep)
	return rep
}
