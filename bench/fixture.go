package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipmgo/internal/cluster"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmcuda"
	"ipmgo/internal/profstore"
	"ipmgo/internal/storecluster"
	"ipmgo/internal/telemetry"
	"ipmgo/internal/workloads"
)

// ---- inputs ----

// docPool is the rendered document set of one seed: pool[i] is
// WriteXML(profiles[i]). Fifteen in sixteen are SyntheticProfile(seed, i)
// (≈4 KB); one in sixteen is a real 4-rank HPL log produced by
// cluster.Run (≈100 KB), so record size varies as it does at a center.
type docPool struct {
	profiles []*ipm.JobProfile
	xml      [][]byte
}

const realLogs = 4 // distinct real HPL logs in a pool

func hplProfile(seed uint64, smoke bool) (*ipm.JobProfile, error) {
	cfg := cluster.Dirac(4, 1)
	cfg.Monitor = true
	cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	cfg.Command = "./xhpl.cuda"
	cfg.NoiseSeed = int64(seed)
	cfg.NoiseAmp = 0.03
	hpl := workloads.DefaultHPL()
	hpl.Scale = 0.05
	if smoke {
		hpl.Iterations = 6
	}
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		if err := workloads.HPL(env, hpl); err != nil {
			panic(err)
		}
	})
	if err != nil {
		return nil, err
	}
	return res.Profile, nil
}

func renderPool(e *env) (*docPool, error) {
	p := &docPool{profiles: make([]*ipm.JobProfile, e.sz.pool), xml: make([][]byte, e.sz.pool)}
	var real [realLogs]*ipm.JobProfile
	var realXML [realLogs][]byte
	var buf bytes.Buffer
	render := func(jp *ipm.JobProfile) ([]byte, error) {
		buf.Reset()
		if err := ipm.WriteXML(&buf, jp); err != nil {
			return nil, err
		}
		return append([]byte(nil), buf.Bytes()...), nil
	}
	for k := range real {
		jp, err := hplProfile(e.seed+uint64(k), e.smoke)
		if err != nil {
			return nil, fmt.Errorf("real HPL log %d: %w", k, err)
		}
		real[k] = jp
		if realXML[k], err = render(jp); err != nil {
			return nil, err
		}
	}
	for i := range p.xml {
		if i%16 == 15 {
			k := (i / 16) % realLogs
			p.profiles[i], p.xml[i] = real[k], realXML[k]
			continue
		}
		p.profiles[i] = profstore.SyntheticProfile(e.seed, i)
		var err error
		if p.xml[i], err = render(p.profiles[i]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func batchTag(k int) []string { return []string{"batch:" + strconv.Itoa(k)} }

// ---- fixture: stores and members behind real loopback listeners ----

// opRef is the client operation a member is serving as router, for the
// peer transport to stamp onto the legs it sends.
type opRef struct {
	op     int64
	parent int32 // the router's handler span
}

type member struct {
	idx     int
	url     string
	walPath string
	ln      net.Listener
	store   *profstore.Store
	srv     *http.Server
	cur     atomic.Pointer[opRef]
}

// layerCounts are counted at the same boundaries the spans are recorded
// at (traced run only).
type layerCounts struct {
	memoReads, memoMisses atomic.Int64
	mu                    sync.Mutex
	lastEpoch             map[string]uint64 // "<site> <url>" -> store epoch at its last read
}

type fixture struct {
	e        *env
	dir      string
	members  []*member
	cluster  bool
	counts   *layerCounts
	peerBase *http.Transport
}

const (
	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Parent"
)

// newFixture brings up one store (members == 1, plain profstore server)
// or a storecluster of members, WAL-backed at SyncEvery: 1 (see walTap
// for what becomes of the flush), preloaded with the first e.sz.corpus
// pool documents and restarted once, so the set-up it times ends, as a
// real server start does, with a WAL replay.
func newFixture(e *env, pool *docPool, members int) (fx *fixture, err error) {
	dir, err := os.MkdirTemp(e.tmpRoot, "wal-")
	if err != nil {
		return nil, err
	}
	fx = &fixture{e: e, dir: dir, cluster: members > 1, counts: &layerCounts{lastEpoch: map[string]uint64{}}}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	urls := make([]string, members)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		urls[i] = "http://" + ln.Addr().String()
		fx.members = append(fx.members, &member{idx: i, url: urls[i], ln: ln, walPath: filepath.Join(dir, fmt.Sprintf("member%d.wal", i))})
	}

	// Preload each member's share straight into its store, members in
	// parallel, then close: the servers below start from the WAL.
	ring, err := storecluster.NewRing(urls)
	if err != nil {
		return nil, err
	}
	share := make([][]int, members)
	for i := 0; i < e.sz.corpus; i++ {
		for _, owner := range ring.Owners(preloadID(i), e.sz.replicas) {
			for m, u := range urls {
				if u == owner {
					share[m] = append(share[m], i)
				}
			}
		}
	}
	errs := make([]error, members)
	var wg sync.WaitGroup
	for m := range fx.members {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			st, _, err := profstore.OpenStore(fx.members[m].walPath, profstore.StoreOptions{SyncEvery: 1, WrapWAL: tapWAL(nil, m, false)})
			if err != nil {
				errs[m] = err
				return
			}
			for _, i := range share[m] {
				if _, err := st.Ingest(pool.xml[i], preloadID(i), batchTag(i%batchTags)); err != nil {
					errs[m] = err
					break
				}
			}
			if err := st.Close(); errs[m] == nil {
				errs[m] = err
			}
		}(m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}

	if e.trace != nil && fx.cluster {
		// The traced run's peer legs ride on a transport with the
		// settings of the shared pooled one storecluster uses when
		// Config.Transport is nil.
		fx.peerBase = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
	}
	for i, m := range fx.members {
		st, rs, err := profstore.OpenStore(m.walPath, profstore.StoreOptions{SyncEvery: 1, WrapWAL: tapWAL(e.trace, i, false)})
		if err != nil {
			return nil, err
		}
		m.store = st
		if rs.Recovered != len(share[i]) || rs.Skipped != 0 {
			return nil, fmt.Errorf("member %d replayed %d records (%d skipped), preloaded %d", i, rs.Recovered, rs.Skipped, len(share[i]))
		}
		reg := telemetry.NewRegistry()
		handler := profstore.NewServer(st, reg).Handler()
		if fx.cluster {
			cfg := storecluster.Config{
				Self: m.url, Members: urls, Replicas: e.sz.replicas,
				Store: st, Local: handler, Registry: reg,
			}
			if e.trace != nil {
				cfg.Transport = &peerTransport{base: fx.peerBase, t: e.trace, m: m}
			}
			cl, err := storecluster.New(cfg)
			if err != nil {
				return nil, err
			}
			handler = cl.Handler()
		}
		if e.trace != nil {
			handler = &tracedHandler{next: handler, fx: fx, m: m}
		}
		m.srv = &http.Server{Handler: handler}
		go m.srv.Serve(m.ln) // returns when close() closes the server
	}
	return fx, nil
}

// close stops the servers, closes the stores and removes the WAL
// directory. Safe on a partly built fixture.
func (fx *fixture) close() error {
	var first error
	if fx.peerBase != nil {
		fx.peerBase.CloseIdleConnections()
	}
	for _, m := range fx.members {
		if m.srv != nil {
			m.srv.Close()
		}
		m.ln.Close() // a second close, after the server's, is harmless
		if m.store != nil {
			if err := m.store.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if err := os.RemoveAll(fx.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// ---- tracing wrappers (installed only on the traced run) ----

// tracedHandler is the harness middleware around the handler a member
// serves: one span per request, parented on the span named in the
// request headers, plus the memo-miss count.
type tracedHandler struct {
	next http.Handler
	fx   *fixture
	m    *member
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 32)
	shard := strings.HasPrefix(r.URL.Path, "/shard/")
	layer := "profstore"
	if h.fx.cluster && !shard {
		layer = "storecluster"
	}
	if r.Method == http.MethodGet && layer == "profstore" {
		h.fx.counts.read(h.m, r.URL.RequestURI())
	}
	id := h.fx.e.trace.begin(layer, r.Method+" "+r.URL.Path, h.m.idx, int32(parent), op)
	if layer == "storecluster" {
		h.m.cur.Store(&opRef{op: op, parent: id})
	}
	h.next.ServeHTTP(w, r)
	if layer == "storecluster" {
		h.m.cur.Store(nil)
	}
	h.fx.e.trace.end(id, max(r.ContentLength, 0))
}

// read counts one query against a store and whether the store's epoch
// moved since the same query last ran there, in which case the memo
// cannot serve it.
func (c *layerCounts) read(m *member, uri string) {
	key := strconv.Itoa(m.idx) + " " + uri
	epoch := m.store.Epoch()
	c.mu.Lock()
	last, seen := c.lastEpoch[key]
	c.lastEpoch[key] = epoch
	c.mu.Unlock()
	c.memoReads.Add(1)
	if !seen || last != epoch {
		c.memoMisses.Add(1)
	}
}

// peerTransport is the storecluster.Config.Transport wrapper: one span
// per peer leg, from the request to the end of the response body, and
// the operation id passed on in a header so the peer's handler span
// joins the same tree.
type peerTransport struct {
	base http.RoundTripper
	t    *tracer
	m    *member
}

func (p *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	cur := p.m.cur.Load()
	if cur == nil {
		return p.base.RoundTrip(req)
	}
	id := p.t.begin("peer", "peer "+req.Method+" "+req.URL.Path, p.m.idx, cur.parent, cur.op)
	req = req.Clone(req.Context())
	req.Header.Set(hdrOp, strconv.FormatInt(cur.op, 10))
	req.Header.Set(hdrParent, strconv.Itoa(int(id)))
	resp, err := p.base.RoundTrip(req)
	if err != nil {
		p.t.end(id, 0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: p.t, id: id}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t  *tracer
	id int32
	n  int64
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	b.t.end(b.id, b.n)
	return b.ReadCloser.Close()
}

// walTap is the StoreOptions.WrapWAL wrapper of every store the
// harness opens. The stores run at the shipped SyncEvery: 1 and call
// Sync after every append; the tap counts the call and, unless flush is
// set, does not pass it on. This sandbox's fsync takes 0.25 to 0.45 ms
// and drifts by a quarter within half an hour (README.md, "Why the flush
// is intercepted"), which is more than any bound, so the gated metrics
// cover everything up to the flush, the flushes are counted, and what
// one costs here is measured by a probe on a store that does flush.
//
// On the traced run the tap also records a span per Write and per Sync.
// It cannot see which request an append belongs to; the analysis adopts
// each span into the ingest handler it ran inside.
type walTap struct {
	inner profstore.WriteSyncer
	t     *tracer
	site  int
	flush bool
}

func tapWAL(t *tracer, site int, flush bool) func(profstore.WriteSyncer) profstore.WriteSyncer {
	return func(w profstore.WriteSyncer) profstore.WriteSyncer {
		return &walTap{inner: w, t: t, site: site, flush: flush}
	}
}

func (w *walTap) Write(p []byte) (int, error) {
	id := w.t.begin("wal", "wal.write", w.site, 0, 0)
	n, err := w.inner.Write(p)
	w.t.end(id, int64(n))
	return n, err
}

func (w *walTap) Sync() (err error) {
	id := w.t.begin("wal", "wal.sync", w.site, 0, 0)
	if w.flush {
		err = w.inner.Sync()
	}
	w.t.end(id, 0)
	return err
}
