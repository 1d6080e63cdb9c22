package profstore

import "sync"

// Version-keyed memo cache for /agg and /regress.
//
// A Corpus carries a version token that moves whenever the jobs Select
// would walk change: the store's epoch counter, which advances after
// every shard insert, or a cluster router's mirror generation, which
// advances whenever any epoch in its (local, peer₁…peerₙ) vector did. A
// cached report is valid only for the version it was computed under; the
// first lookup after a change misses and recomputes. To never cache a
// result that straddles a change, the protocol is capture-compute-recheck:
//
//  1. capture the version BEFORE selecting jobs,
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
// Cached reports are shared between callers: they are never mutated after
// aggregateJobs/regressFrom builds them.

// Corpus is the job source the memoised queries run over: *Store on a
// single node, the router's mirror of every member in a cluster.
type Corpus interface {
	// Epoch returns the current version token. Select called after it
	// must see every change the token accounts for (it may see newer
	// ones: the recheck keeps those out of the cache).
	Epoch() uint64
	// Select resolves a job selector (see Store.Select), sorted by id.
	Select(sel string) []*Job
}

// memoKey identifies one cacheable query.
type memoKey struct {
	kind string // "agg" or "regress"
	a, b string // selectors
	n    int    // TopN (agg)
	th   float64
}

// Memo caches reports under the corpus version they were computed from.
// The zero value is an empty cache.
type Memo struct {
	mu           sync.Mutex
	ver          uint64
	m            map[memoKey]any
	hits, misses int64
}

// lookup returns the cached report for key if one was stored under ver.
func (m *Memo) lookup(ver uint64, key memoKey) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ver == ver && m.m != nil {
		if rep, ok := m.m[key]; ok {
			m.hits++
			return rep, true
		}
	}
	m.misses++
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

// Stats returns how many lookups the cache answered and how many it
// could not.
func (m *Memo) Stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
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
	rep := aggregateJobs(c.Select(opts.Sel), opts)
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
	rep := regressFrom(c.Select(opts.Base), c.Select(opts.Head), opts)
	m.store(c, ver, key, rep)
	return rep
}
