package storecluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipmgo/internal/faultsim"
	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
)

// Cluster metric names.
const (
	MetricMembers     = "ipm_cluster_members"
	MetricReplicas    = "ipm_cluster_replicas"
	MetricPeerLatency = "ipm_peer_latency_ns"
	MetricPeerErrors  = "ipm_peer_errors_total"
	MetricPeerReqs    = "ipm_peer_requests_total"
	MetricForwards    = "ipm_cluster_ingest_forwards_total"
	MetricScatters    = "ipm_cluster_scatters_total"
	MetricQuorumFails = "ipm_cluster_quorum_failures_total"

	MetricMirrorRevalidations = "ipm_cluster_mirror_revalidations_total"
	MetricMirrorDeltaJobs     = "ipm_cluster_mirror_delta_jobs_total"
	MetricMirrorMemo          = "ipm_cluster_mirror_memo_lookups_total"
)

// Config wires one ipmserve member into a cluster.
type Config struct {
	// Self is this member's base URL; must be one of Members.
	Self string
	// Members are all member base URLs, including Self. Order is
	// irrelevant (the ring canonicalises it).
	Members []string
	// Replicas is R, the number of members owning each job id. 0 means 2,
	// clamped to the member count. Writes ack at the majority quorum
	// (R/2+1).
	Replicas int
	// Store is this member's local profile store.
	Store *profstore.Store
	// Local is the single-node HTTP surface over Store: it must be what
	// profstore.Server.Handler() returned (a *profstore.QuerySurface). The
	// cluster handler serves POST /ingest through Local's own handler over
	// the quorum write (Cluster.Ingest), /jobs, /job/{id}, /agg and
	// /regress through Local's own handlers over the mirror, and
	// delegates everything else to it.
	Local http.Handler
	// Registry receives the cluster metrics; also used by Local for
	// /metrics.
	Registry *telemetry.Registry
	// Recorder, when non-nil, receives scatter-gather and forward spans
	// for the Chrome-trace export.
	Recorder *telemetry.Recorder
	// Transport overrides the peer HTTP transport (the faultsim.PeerPlan
	// seam); nil uses the shared pooled keep-alive transport.
	Transport http.RoundTripper
	// Timeout bounds one peer request; 0 means 10s.
	Timeout time.Duration
	// Retry is the per-peer retry schedule for forwarded ingest; the zero
	// value is the faultsim default (3 attempts, capped backoff).
	Retry faultsim.RetryPolicy
}

// fanOutLimit bounds concurrent peer requests per routed operation.
const fanOutLimit = 4

// Cluster is one member's router: it owns the ring, the peer clients
// and the mirror the corpus-wide queries are served from (mirror.go).
type Cluster struct {
	cfg     Config
	ring    *Ring
	peers   []string // canonical members minus self
	all     []int    // every index into peers
	quorum  int
	client  *http.Client
	posters map[string]*profstore.Poster
	start   time.Time
	mirror  *mirror
	routes  http.Handler // Local's corpus handlers over the quorum write and the mirror

	peerLat     *telemetry.HistogramVec
	peerErr     *telemetry.Vec
	peerReq     *telemetry.Vec
	memoLookups *telemetry.Vec

	scatters    atomic.Int64
	quorumFails atomic.Int64
}

// New validates the config and builds the member's router.
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Members)
	if err != nil {
		return nil, err
	}
	self := false
	for _, m := range ring.Members() {
		if m == cfg.Self {
			self = true
		}
	}
	if !self {
		return nil, fmt.Errorf("storecluster: self %q is not a cluster member %v", cfg.Self, ring.Members())
	}
	if cfg.Store == nil || cfg.Local == nil || cfg.Registry == nil {
		return nil, fmt.Errorf("storecluster: Store, Local and Registry are required")
	}
	local, ok := cfg.Local.(*profstore.QuerySurface)
	if !ok {
		return nil, fmt.Errorf("storecluster: Local must be a profstore.Server's Handler(), not %T", cfg.Local)
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas < 1 || cfg.Replicas > ring.Len() {
		if cfg.Replicas > ring.Len() {
			cfg.Replicas = ring.Len()
		} else {
			return nil, fmt.Errorf("storecluster: replicas %d < 1", cfg.Replicas)
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	c := &Cluster{
		cfg:    cfg,
		ring:   ring,
		quorum: cfg.Replicas/2 + 1,
		client: &http.Client{
			Timeout:   cfg.Timeout,
			Transport: profstore.CountingTransport(cfg.Transport),
		},
		posters: make(map[string]*profstore.Poster),
		start:   time.Now(),
		peerLat: cfg.Registry.HistogramVec(MetricPeerLatency,
			"Peer request latency in nanoseconds, by peer base URL.",
			"peer", telemetry.ExpBuckets(1e5, 4, 10)),
		peerErr: cfg.Registry.CounterVec(MetricPeerErrors,
			"Peer requests that failed after retries, by peer base URL.", "peer"),
		peerReq: cfg.Registry.CounterVec(MetricPeerReqs,
			"Peer requests issued (before retries), by peer base URL.", "peer"),
		memoLookups: cfg.Registry.CounterVec(MetricMirrorMemo,
			"Routed /agg and /regress memo lookups, by result: hit, delta (an accumulator moved by the changed ids) or full (folded from empty).", "result"),
	}
	for _, m := range ring.Members() {
		if m == cfg.Self {
			continue
		}
		c.all = append(c.all, len(c.peers))
		c.peers = append(c.peers, m)
		// The /shard prefix keeps a forwarded ingest from being re-routed
		// by the receiving member (Poster appends nothing when the URL
		// already contains /ingest).
		c.posters[m] = &profstore.Poster{
			URL:    m + "/shard/ingest",
			Policy: cfg.Retry,
			Client: c.client,
		}
	}
	c.mirror = &mirror{c: c, peers: make([]profstore.RollupMirror, len(c.peers))}
	c.routes = local.Routes(c.mirror, c)
	revalidations := cfg.Registry.CounterVec(MetricMirrorRevalidations,
		"Conditional /shard/rollups?since= legs applied to the mirror, by reply kind (unchanged, delta, full).", "result")
	for k := range c.mirror.revalidations {
		c.mirror.revalidations[k] = revalidations.With(profstore.RollupKind(k).String())
	}
	return c, nil
}

// Ring exposes the member's ring (for tests and the soak harness).
func (c *Cluster) Ring() *Ring { return c.ring }

// span records one cluster operation into the recorder, if any.
func (c *Cluster) span(track, name string, start time.Time, bytes int64) {
	if c.cfg.Recorder == nil {
		return
	}
	end := time.Now()
	c.cfg.Recorder.Record(telemetry.Span{
		Track: track, Name: name, Class: telemetry.ClassOther,
		Start: start.Sub(c.start), End: end.Sub(c.start), Bytes: bytes,
	})
}

// Handler returns the cluster route mux: the routed ingest and the
// queries served from the mirror, the member-local /shard/* surface, and
// delegation to the single-node handler for everything else.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	// Ingest and the corpus-wide queries are the single-node handlers
	// (same parsing, same counters, same renderers) over the quorum write
	// and the mirror instead of the local store.
	for _, route := range []string{"POST /ingest", "GET /jobs", "GET /job/{id}", "GET /agg", "GET /regress"} {
		mux.Handle(route, c.routes)
	}
	// The local-only shard surface. /shard/ingest is a path rewrite onto
	// the single-node handler: same parsing, same counters, same response
	// bytes — just exempt from routing.
	mux.HandleFunc("GET /shard/rollups", c.handleShardRollups)
	mux.HandleFunc("POST /shard/ingest", func(w http.ResponseWriter, r *http.Request) {
		r2 := r.Clone(r.Context())
		r2.URL.Path = "/ingest"
		c.cfg.Local.ServeHTTP(w, r2)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		c.publish()
		c.cfg.Local.ServeHTTP(w, r)
	})
	mux.Handle("/", c.cfg.Local)
	return mux
}

// publish pushes the cluster counters into the registry (the Vec and
// HistogramVec families render themselves).
func (c *Cluster) publish() {
	hits, deltas, fulls := c.mirror.memo.Stats()
	c.memoLookups.With("hit").Set(float64(hits))
	c.memoLookups.With("delta").Set(float64(deltas))
	c.memoLookups.With("full").Set(float64(fulls))
	var posts, retries, failures int64
	for _, p := range c.posters {
		st := p.Stats()
		posts += st.Posts
		retries += st.Retries
		failures += st.Failures
	}
	c.cfg.Registry.Publish("storecluster", []telemetry.Sample{
		{Name: MetricMembers, Help: "Cluster member count.", Type: "gauge", Value: float64(c.ring.Len())},
		{Name: MetricReplicas, Help: "Replication factor R.", Type: "gauge", Value: float64(c.cfg.Replicas)},
		{Name: MetricForwards, Help: "Ingest documents forwarded to peer owners.", Type: "counter", Value: float64(posts)},
		{Name: MetricScatters, Help: "Scatter-gather query fan-outs issued.", Type: "counter", Value: float64(c.scatters.Load())},
		{Name: MetricQuorumFails, Help: "Routed ingests that missed the write quorum.", Type: "counter", Value: float64(c.quorumFails.Load())},
		{Name: MetricMirrorDeltaJobs, Help: "Jobs received in delta replies to mirror revalidations.", Type: "counter", Value: float64(c.mirror.deltaJobs.Load())},
		{Name: profstore.MetricIngestRetries, Help: "Ingest attempts beyond the first.", Type: "counter", Value: float64(retries)},
		{Name: profstore.MetricIngestFailures, Help: "Profiles that exhausted every ingest attempt.", Type: "counter", Value: float64(failures)},
		{Name: profstore.MetricIngestConnReuse, Help: "Requests on the shared transport served over a reused keep-alive connection.", Type: "counter", Value: float64(profstore.ConnReuseTotal())},
	})
}

// ---- routed ingest ----

// ownerResult is one owner's outcome for a routed ingest.
type ownerResult struct {
	job *profstore.Job
	err error
}

// Ingest is the router's write, the profstore.Ingester behind its POST
// /ingest: the document lands on every owner of its id and acks at the
// majority quorum with the first acking owner's job. Below quorum it
// fails with profstore.ErrUnavailable — unless no owner acked and one
// rejected the document, whose own error text is then the answer: every
// replica of an unparseable document rejects it identically.
func (c *Cluster) Ingest(xml []byte, id string, tags []string) (*profstore.Job, error) {
	if id == "" {
		id = profstore.DeriveID(xml)
	}
	owners := c.ring.Owners(id, c.cfg.Replicas)

	start := time.Now()
	results := make([]ownerResult, len(owners))
	sem := make(chan struct{}, fanOutLimit)
	var wg sync.WaitGroup
	for i, owner := range owners {
		wg.Add(1)
		go func(i int, owner string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = c.ingestOne(owner, xml, id, tags)
		}(i, owner)
	}
	wg.Wait()
	c.span("cluster/ingest", id, start, int64(len(xml)))

	acked := 0
	var job *profstore.Job
	var rejection error
	for _, res := range results {
		switch {
		case res.err == nil:
			acked++
			if job == nil {
				job = res.job
			}
		case !profstore.IsUnavailable(res.err):
			rejection = res.err
		}
	}
	if acked >= c.quorum {
		return job, nil
	}
	c.quorumFails.Add(1)
	if acked == 0 && rejection != nil {
		return nil, rejection
	}
	return nil, fmt.Errorf("%w: write quorum not reached: %d/%d owners acked (need %d)",
		profstore.ErrUnavailable, acked, len(owners), c.quorum)
}

// ingestOne lands the document on one owner: directly into the local
// store for self, via the retrying Poster for a peer.
func (c *Cluster) ingestOne(owner string, xml []byte, id string, tags []string) ownerResult {
	if owner == c.cfg.Self {
		job, err := c.cfg.Store.Ingest(xml, id, tags)
		return ownerResult{job, err}
	}
	start := time.Now()
	c.peerReq.With(owner).Add(1)
	job, err := c.posters[owner].Ingest(xml, id, tags)
	c.peerLat.With(owner).Observe(float64(time.Since(start).Nanoseconds()))
	if err != nil {
		c.peerErr.With(owner).Add(1)
	}
	return ownerResult{job, err}
}

// ---- peer reads ----

// peerStatus is a peer's non-2xx answer.
type peerStatus struct {
	code int
	body string
}

func (e *peerStatus) Error() string { return fmt.Sprintf("peer returned %d: %s", e.code, e.body) }

// peerGet fetches one peer-local URL with the retry schedule, recording
// latency and error metrics. first, when not nil, is the first attempt's
// request, already built (see fanOut).
func (c *Cluster) peerGet(peer, path string, first *http.Request) ([]byte, http.Header, error) {
	var lastErr error
	attempts := c.cfg.Retry.Attempts()
	if c.cfg.Retry.Disable {
		attempts = 1
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.Retry.BackoffFor(attempt - 1))
		}
		start := time.Now()
		c.peerReq.With(peer).Add(1)
		resp, body, err := c.get(peer+path, first)
		first = nil
		c.peerLat.With(peer).Observe(float64(time.Since(start).Nanoseconds()))
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode/100 != 2 {
			lastErr = &peerStatus{resp.StatusCode, strings.TrimSpace(string(body))}
			if resp.StatusCode < 500 {
				break // permanent
			}
			continue
		}
		return body, resp.Header, nil
	}
	c.peerErr.With(peer).Add(1)
	return nil, nil, fmt.Errorf("storecluster: %s%s: %w", peer, path, lastErr)
}

// get is one GET of url under the peer timeout, handed straight to the
// transport: a peer never redirects, and http.Client's timeout would start
// a timer goroutine per request. req, when not nil, is that GET already
// built.
func (c *Cluster) get(url string, req *http.Request) (*http.Response, []byte, error) {
	if req == nil {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
		defer cancel()
		var err error
		if req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil); err != nil {
			return nil, nil, err
		}
	}
	resp, err := c.client.Transport.RoundTrip(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, err
}

// peersFor returns the peers a read of sel must revalidate, as indices
// into c.peers: every peer for a corpus selector, but for a single job id
// only the peers among its ring owners — no other member can hold it.
func (c *Cluster) peersFor(sel string) []int {
	if !profstore.IsIDSelector(sel) {
		return c.all
	}
	owners := c.ring.Owners(sel, c.cfg.Replicas)
	var peers []int
	for i, peer := range c.peers {
		if slices.Contains(owners, peer) {
			peers = append(peers, i)
		}
	}
	return peers
}

// fanOut runs leg for each of peers (indices into c.peers) concurrently,
// bounded by fanOutLimit, and returns the first failure. Reads are
// strict: any asked peer's failure fails the query, because an answer
// without that peer could silently drop its exclusive jobs. Each leg is
// handed its first request, a GET of paths[i] from peer i, built before
// any leg starts: the legs then leave together instead of one request's
// set-up apart. Those first requests share one peer timeout, counted from
// the fan-out's start.
func (c *Cluster) fanOut(peers []int, paths []string, leg func(i int, first *http.Request) error) error {
	if len(peers) == 0 {
		return nil
	}
	c.scatters.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	first := make([]*http.Request, len(peers))
	for k, i := range peers {
		first[k], _ = http.NewRequestWithContext(ctx, http.MethodGet, c.peers[i]+paths[i], nil) // nil: the leg builds it and reports why
	}
	sem := make(chan struct{}, fanOutLimit)
	errs := make(chan error, len(peers))
	for k, i := range peers {
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			errs <- leg(i, first[k])
		}()
	}
	var firstErr error
	for range peers {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
