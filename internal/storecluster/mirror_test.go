package storecluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"ipmgo/internal/faultsim"
	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
)

// The mirror tests run whole clusters in one process over an in-memory
// transport: peer legs are served by the target member's handler
// directly, so a test can restart a member on its WAL, count legs on
// /metrics and race routers against writers without a socket.

// memNet is the Config.Transport of an in-process cluster: requests are
// handed to the handler registered for their host.
type memNet struct {
	mu       sync.RWMutex
	handlers map[string]http.Handler
}

func (n *memNet) RoundTrip(req *http.Request) (*http.Response, error) {
	n.mu.RLock()
	h := n.handlers[req.URL.Host]
	n.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("memnet: %s: %w", req.URL.Host, syscall.ECONNREFUSED)
	}
	var body io.Reader
	if req.Body != nil {
		defer req.Body.Close()
		body = req.Body
	}
	in := httptest.NewRequest(req.Method, req.URL.String(), body)
	in.Header = req.Header.Clone()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	return rec.Result(), nil
}

type memMember struct {
	url     string
	walPath string // "" = in-memory store
	store   *profstore.Store
	rec     *telemetry.Recorder
	h       http.Handler
}

type memCluster struct {
	t        *testing.T
	net      *memNet
	replicas int
	urls     []string
	members  []*memMember
}

// startMemCluster brings up n members with replication r; wal backs
// every store with a WAL under t.TempDir(), so members can restart.
// wrap, when non-nil, wraps member i's view of the network.
func startMemCluster(t *testing.T, n, r int, wal bool, wrap func(i int, net http.RoundTripper) http.RoundTripper) *memCluster {
	t.Helper()
	mc := &memCluster{t: t, net: &memNet{handlers: map[string]http.Handler{}}, replicas: r}
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		m := &memMember{url: fmt.Sprintf("http://member%d", i)}
		if wal {
			m.walPath = filepath.Join(dir, fmt.Sprintf("member%d.wal", i))
		}
		mc.urls = append(mc.urls, m.url)
		mc.members = append(mc.members, m)
	}
	for i := range mc.members {
		mc.boot(i, wrap)
	}
	t.Cleanup(func() {
		for _, m := range mc.members {
			m.store.Close()
		}
	})
	return mc
}

// boot opens member i's store and puts a new router over it on the net.
func (mc *memCluster) boot(i int, wrap func(i int, net http.RoundTripper) http.RoundTripper) {
	mc.t.Helper()
	m := mc.members[i]
	m.store = profstore.New()
	if m.walPath != "" {
		var err error
		if m.store, _, err = profstore.OpenStore(m.walPath, profstore.StoreOptions{}); err != nil {
			mc.t.Fatal(err)
		}
	}
	var transport http.RoundTripper = mc.net
	if wrap != nil {
		transport = wrap(i, transport)
	}
	reg := telemetry.NewRegistry()
	m.rec = telemetry.NewRecorder(4096)
	cl, err := New(Config{
		Self: m.url, Members: mc.urls, Replicas: mc.replicas,
		Store: m.store, Local: profstore.NewServer(m.store, reg).Handler(),
		Registry: reg, Recorder: m.rec, Transport: transport,
		Retry: faultsim.RetryPolicy{Disable: true},
	})
	if err != nil {
		mc.t.Fatal(err)
	}
	m.h = cl.Handler()
	mc.net.mu.Lock()
	mc.net.handlers[strings.TrimPrefix(m.url, "http://")] = m.h
	mc.net.mu.Unlock()
}

// restart closes member i and reopens it on the same WAL (or, without
// one, empty): a new store generation behind the same URL. The other
// routers keep their mirrors.
func (mc *memCluster) restart(i int) {
	mc.t.Helper()
	if err := mc.members[i].store.Close(); err != nil {
		mc.t.Fatal(err)
	}
	mc.boot(i, nil)
}

func (mc *memCluster) do(i int, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	mc.members[i].h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func (mc *memCluster) mustGet(i int, path string) string {
	mc.t.Helper()
	rec := mc.do(i, "GET", path, nil)
	if rec.Code != 200 {
		mc.t.Fatalf("GET %s via member %d: %d: %s", path, i, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// post ingests doc through router i; it reports instead of failing the
// test so writers on other goroutines can use it.
func (mc *memCluster) post(i int, doc []byte, query string) error {
	if rec := mc.do(i, "POST", "/ingest?"+query, doc); rec.Code != 200 {
		return fmt.Errorf("ingest via member %d: %d: %s", i, rec.Code, rec.Body)
	}
	return nil
}

// metric reads one sample off member i's /metrics, 0 if absent.
func (mc *memCluster) metric(i int, sample string) float64 {
	mc.t.Helper()
	return metricOf(mc.t, mc.members[i].h, sample)
}

func revalidations(kind string) string {
	return fmt.Sprintf(`%s{result="%s"}`, MetricMirrorRevalidations, kind)
}

var mirrorQueries = []string{
	"/agg",
	"/agg?sel=tag:batch:0&top=3",
	"/regress?base=tag:batch:0&head=tag:batch:1&threshold=5",
	"/jobs",
	"/job/job-04",
}

// reference answers queries from one plain store holding writes, an
// id-keyed last-write-wins corpus: each answer is the status code and
// the body.
type refWrite struct {
	doc  []byte
	tags string
}

func reference(t *testing.T, writes map[string]refWrite, queries []string) map[string]string {
	t.Helper()
	ref := profstore.New()
	for id, w := range writes {
		if _, err := ref.Ingest(w.doc, id, strings.Split(w.tags, ",")); err != nil {
			t.Fatal(err)
		}
	}
	h := profstore.NewServer(ref, telemetry.NewRegistry()).Handler()
	out := map[string]string{}
	for _, q := range queries {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", q, nil))
		out[q] = answer(rec)
	}
	return out
}

func answer(rec *httptest.ResponseRecorder) string { return fmt.Sprintf("%d %s", rec.Code, rec.Body) }

// checkAllRouters compares every router's answers with the reference.
func (mc *memCluster) checkAllRouters(writes map[string]refWrite, queries []string) {
	mc.t.Helper()
	want := reference(mc.t, writes, queries)
	for i := range mc.members {
		for _, q := range queries {
			if got := answer(mc.do(i, "GET", q, nil)); got != want[q] {
				mc.t.Errorf("%s via router %d differs from the single-node reference\ngot:  %.300s\nwant: %.300s", q, i, got, want[q])
			}
		}
	}
}

// load ingests the corpus under explicit ids through rotating routers.
func (mc *memCluster) load(docs [][]byte, tags []string) map[string]refWrite {
	mc.t.Helper()
	writes := map[string]refWrite{}
	for k, doc := range docs {
		id := fmt.Sprintf("job-%02d", k)
		if err := mc.post(k%len(mc.members), doc, "id="+id+"&tags="+tags[k]); err != nil {
			mc.t.Fatal(err)
		}
		writes[id] = refWrite{doc, tags[k]}
	}
	return writes
}

// TestMirrorWarmDeltaFull walks one router through the three reply
// kinds: the first query resyncs every peer in full, a quiet cluster
// revalidates "unchanged", one write comes back as a one-job delta —
// and the routed queries land in the same profstore counters a
// single-node query does.
func TestMirrorWarmDeltaFull(t *testing.T) {
	docs, tags := corpusDocs(12)
	mc := startMemCluster(t, 3, 2, false, nil)
	writes := mc.load(docs, tags)

	// An empty mirror is at epoch 0, which no store generation ever was.
	mc.mustGet(0, "/agg")
	if got := mc.metric(0, revalidations("full")); got != 2 {
		t.Errorf("first query applied %v full replies, want 2 (one per peer)", got)
	}

	mc.mustGet(0, "/agg")
	mc.mustGet(0, "/regress?base=tag:batch:0&head=tag:batch:1")
	if got := mc.metric(0, revalidations("unchanged")); got != 4 {
		t.Errorf("two warm queries revalidated %v legs unchanged, want 4 (/regress is one revalidation, not two scatters)", got)
	}
	if hit := mc.metric(0, MetricMirrorMemo+`{result="hit"}`); hit != 1 {
		t.Errorf("warm /agg: %v memo hits, want 1", hit)
	}
	if full := mc.metric(0, MetricMirrorMemo+`{result="full"}`); full != 2 {
		t.Errorf("%v memo lookups folded from empty, want 2 (first /agg, first /regress)", full)
	}
	if delta := mc.metric(0, MetricMirrorMemo+`{result="delta"}`); delta != 0 {
		t.Errorf("%v memo lookups moved by a delta on a quiet cluster, want 0", delta)
	}

	// One replacing write somewhere else in the cluster: R=2 owners, so at
	// most two of router 0's peers report it, one job each.
	if err := mc.post(1, docs[3], "id=job-07&tags="+tags[7]); err != nil {
		t.Fatal(err)
	}
	writes["job-07"] = refWrite{docs[3], tags[7]}
	mc.checkAllRouters(writes, mirrorQueries)
	if got := mc.metric(0, MetricMirrorDeltaJobs); got < 1 || got > 2 {
		t.Errorf("one write came back as %v delta jobs, want 1 or 2", got)
	}
	// The accumulators of "", tag:batch:0 and tag:batch:1, built by the
	// first /agg and /regress, move by that job: every /agg and /regress
	// after the write is a delta, /agg?sel=tag:batch:0 included.
	if delta := mc.metric(0, MetricMirrorMemo+`{result="delta"}`); delta != 3 {
		t.Errorf("%v memo lookups moved by a delta after one write, want 3 (/agg, /agg?sel, /regress)", delta)
	}
	if full := mc.metric(0, MetricMirrorMemo+`{result="full"}`); full != 2 {
		t.Errorf("%v memo lookups folded from empty after one write, want still 2", full)
	}
	if got := mc.metric(0, revalidations("full")); got != 2 {
		t.Errorf("%v full resyncs, want only the first contact's 2 on a cluster that never restarted", got)
	}

	// Bugfix pin: a routed /agg, /jobs, /job/{id} and POST /ingest of a
	// job only peers hold are profstore queries like any other.
	peerOnly := ""
	for id := range writes {
		if mc.members[0].store.Get(id) == nil {
			peerOnly = id
			break
		}
	}
	if peerOnly == "" {
		t.Fatal("member 0 holds the whole corpus; pick other ids")
	}
	for _, q := range []struct {
		method, path, endpoint string
		body                   []byte
	}{
		{"GET", "/agg", "agg", nil}, {"GET", "/jobs", "jobs", nil}, {"GET", "/job/" + peerOnly, "job", nil},
		{"POST", "/ingest?id=" + peerOnly + "&tags=" + writes[peerOnly].tags, "ingest", writes[peerOnly].doc},
	} {
		counter := profstore.MetricQueries + `{endpoint="` + q.endpoint + `"}`
		before := mc.metric(0, counter)
		lat := mc.metric(0, profstore.MetricQuerySecs+"_count")
		if rec := mc.do(0, q.method, q.path, q.body); rec.Code != 200 {
			t.Fatalf("%s %s via member 0: %d: %s", q.method, q.path, rec.Code, rec.Body)
		}
		if got := mc.metric(0, counter); got != before+1 {
			t.Errorf("routed %s moved %s %v -> %v, want +1", q.path, counter, before, got)
		}
		if got := mc.metric(0, profstore.MetricQuerySecs+"_count"); got != lat+1 {
			t.Errorf("routed %s moved %s_count %v -> %v, want +1", q.path, profstore.MetricQuerySecs, lat, got)
		}
	}
	// A garbage body rejected by both owners is the router's own parse
	// and HTTP error.
	parse, httpErrs := mc.metric(0, profstore.MetricParseErrors), mc.metric(0, profstore.MetricHTTPErrors)
	if rec := mc.do(0, "POST", "/ingest?id="+peerOnly, []byte("not an ipm log")); rec.Code != 400 {
		t.Errorf("garbage ingest via member 0: %d, want 400: %s", rec.Code, rec.Body)
	}
	if got := mc.metric(0, profstore.MetricParseErrors); got != parse+1 {
		t.Errorf("routed garbage moved %s %v -> %v, want +1", profstore.MetricParseErrors, parse, got)
	}
	if got := mc.metric(0, profstore.MetricHTTPErrors); got != httpErrs+1 {
		t.Errorf("routed garbage moved %s %v -> %v, want +1", profstore.MetricHTTPErrors, httpErrs, got)
	}
}

// TestMirrorFullResyncAfterRestart: "the memo never serves a pre-restart
// epoch". A member closed and reopened on the same WAL is a new store
// generation; every router's next query resyncs it in full (recording a
// cluster/resync span) and answers exactly what a single node would.
func TestMirrorFullResyncAfterRestart(t *testing.T) {
	docs, tags := corpusDocs(12)
	mc := startMemCluster(t, 3, 2, true, nil)
	writes := mc.load(docs, tags)
	mc.checkAllRouters(writes, mirrorQueries) // every mirror and memo warm

	mc.restart(1)
	for _, router := range []int{0, 2} {
		full := mc.metric(router, revalidations("full"))
		resyncs := countSpans(mc.members[router].rec, "cluster/resync")
		mc.mustGet(router, "/agg")
		if got := mc.metric(router, revalidations("full")); got != full+1 {
			t.Errorf("router %d: %v -> %v full resyncs across member 1's restart, want +1", router, full, got)
		}
		if got := countSpans(mc.members[router].rec, "cluster/resync"); got != resyncs+1 {
			t.Errorf("router %d: %d -> %d cluster/resync spans, want +1", router, resyncs, got)
		}
	}
	mc.checkAllRouters(writes, mirrorQueries)

	// A write the restarted member took while a router was not looking is
	// still there after the resync.
	if err := mc.post(1, docs[0], "id=job-05&tags="+tags[5]); err != nil {
		t.Fatal(err)
	}
	writes["job-05"] = refWrite{docs[0], tags[5]}
	mc.restart(2)
	mc.checkAllRouters(writes, mirrorQueries)
}

// TestMirrorFullResyncAfterMemoryRestart: a member run without a WAL
// comes back empty, and its new store counts epochs from its own boot
// stamp. Were they plain ingest counts, the store below — which takes
// exactly as many writes as the one it replaces had — would arrive at the
// epoch the routers hold and be told "unchanged" over jobs it no longer
// has in that form.
func TestMirrorFullResyncAfterMemoryRestart(t *testing.T) {
	docs, tags := corpusDocs(12)
	mc := startMemCluster(t, 3, 1, false, nil) // R=1: what member 1 forgets is gone
	writes := mc.load(docs, tags)
	mc.checkAllRouters(writes, mirrorQueries) // every mirror and memo warm

	ring, err := NewRing(mc.urls)
	if err != nil {
		t.Fatal(err)
	}
	var lost []string
	for k := range docs {
		if id := fmt.Sprintf("job-%02d", k); ring.Owners(id, 1)[0] == mc.urls[1] {
			lost = append(lost, id)
		}
	}
	if len(lost) == 0 {
		t.Fatal("member 1 owns none of the corpus; pick other ids")
	}
	full := mc.metric(0, revalidations("full"))
	mc.restart(1)
	for k, id := range lost { // same ids, same count, other documents
		w := refWrite{docs[(k+len(docs)/2)%len(docs)], "clu,batch:" + fmt.Sprint(k%2)}
		if err := mc.post(1, w.doc, "id="+id+"&tags="+w.tags); err != nil {
			t.Fatal(err)
		}
		writes[id] = w
	}
	mc.checkAllRouters(writes, mirrorQueries)
	if got := mc.metric(0, revalidations("full")); got != full+1 {
		t.Errorf("router 0: %v -> %v full resyncs across member 1's restart, want +1", full, got)
	}
}

func countSpans(rec *telemetry.Recorder, track string) int {
	n := 0
	for _, sp := range rec.Snapshot() {
		if sp.Track == track {
			n++
		}
	}
	return n
}

// TestMirrorChangeLogOverflow: more writes between two queries than the
// members' change logs hold fall back to a full resync, same bytes.
func TestMirrorChangeLogOverflow(t *testing.T) {
	docs := benchSmallDocs(t, 8)
	mc := startMemCluster(t, 2, 2, false, nil)
	writes := map[string]refWrite{}
	write := func(k int) {
		id := fmt.Sprintf("small-%d", k%5)
		w := refWrite{docs[k%len(docs)], fmt.Sprintf("batch:%d", k%2)}
		if err := mc.post(k%2, w.doc, "id="+id+"&tags="+w.tags); err != nil {
			t.Fatal(err)
		}
		writes[id] = w
	}
	for k := 0; k < 10; k++ {
		write(k)
	}
	mc.checkAllRouters(writes, mirrorQueries)
	full := mc.metric(0, revalidations("full")) // the first contact
	write(10)
	mc.checkAllRouters(writes, mirrorQueries)
	if got := mc.metric(0, revalidations("full")); got != full {
		t.Fatalf("%v -> %v full resyncs before the overflow", full, got)
	}
	for k := 11; k < 11+300; k++ { // the change log holds 256
		write(k)
	}
	mc.checkAllRouters(writes, mirrorQueries)
	if got := mc.metric(0, revalidations("full")); got != full+1 {
		t.Errorf("%v -> %v full resyncs after 300 writes between two queries, want +1", full, got)
	}
}

// TestMirrorConcurrentIngestAndQueries races writers through every
// router against readers on every router (under -race in `make race`);
// at quiescence every router must answer byte-identically to the
// reference, whatever interleaving of deltas its mirror saw.
func TestMirrorConcurrentIngestAndQueries(t *testing.T) {
	docs, tags := corpusDocs(12)
	mc := startMemCluster(t, 4, 2, false, nil)
	writes := mc.load(docs, tags)

	const rounds = 20
	var wg sync.WaitGroup
	for w := range mc.members {
		wg.Add(1)
		go func(w int) { // writer w replaces only its own ids: the last write is unambiguous
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				id := fmt.Sprintf("job-%02d", w+4*(k%3))
				if err := mc.post((w+k)%len(mc.members), docs[(w+k)%len(docs)], "id="+id+"&tags="+tags[w]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		for range 2 { // two readers per router: concurrent revalidations of one mirror
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for k := 0; k < rounds; k++ {
					if rec := mc.do(r, "GET", mirrorQueries[k%len(mirrorQueries)], nil); rec.Code != 200 {
						t.Errorf("%s via router %d: %d: %s", mirrorQueries[k%len(mirrorQueries)], r, rec.Code, rec.Body)
						return
					}
				}
			}(w)
		}
	}
	wg.Wait()
	for w := range mc.members {
		for k := rounds - 3; k < rounds; k++ {
			writes[fmt.Sprintf("job-%02d", w+4*(k%3))] = refWrite{docs[(w+k)%len(docs)], tags[w]}
		}
	}
	mc.checkAllRouters(writes, mirrorQueries)
}

// TestMirrorReadYourWrites: a replacing write with an explicit id,
// acknowledged by one router, is in every other router's very next
// answer — mirror-served (an id side of /regress included) and point-read
// alike.
func TestMirrorReadYourWrites(t *testing.T) {
	docs, tags := corpusDocs(12)
	mc := startMemCluster(t, 4, 2, false, nil)
	writes := mc.load(docs, tags)
	queries := append([]string{
		"/agg?sel=job-04",
		"/regress?base=job-04&head=tag:batch:1",
		"/regress?base=job-03&head=job-04",
	}, mirrorQueries...)
	mc.checkAllRouters(writes, queries) // warm

	for k := 0; k < 6; k++ {
		router := k % len(mc.members)
		if err := mc.post(router, docs[(k+5)%len(docs)], "id=job-04&tags="+tags[4]); err != nil {
			t.Fatal(err)
		}
		writes["job-04"] = refWrite{docs[(k+5)%len(docs)], tags[4]}
		want := reference(t, writes, queries)
		for i := range mc.members {
			if i == router {
				continue
			}
			q := queries[(k+i)%len(queries)]
			if got := answer(mc.do(i, "GET", q, nil)); got != want[q] {
				t.Errorf("write %d via router %d: router %d's next %s does not reflect it", k, router, i, q)
			}
		}
	}
}

// idReadConfigs are the cluster shapes the single-id read tests run on:
// every owner set of a 4- or 5-member ring at R=2 and R=3 leaves members
// that do not own the id.
var idReadConfigs = []struct{ n, r int }{{4, 2}, {4, 3}, {5, 2}, {5, 3}}

// TestMirrorIDReadsAskOnlyOwners: a single-id read revalidates only the
// id's ring owners, and stays strict over them. Member u is unreachable
// from every router, in turn each member of the cluster. When u does not
// own x, /agg?sel=x, /jobs?sel=x and /job/x answer every other router
// with the all-up cluster's bytes; when it does, they answer 503 with
// Retry-After and an error naming u.
func TestMirrorIDReadsAskOnlyOwners(t *testing.T) {
	docs, tags := corpusDocs(12)
	const x = "job-04"
	queries := []string{"/agg?sel=" + x, "/jobs?sel=" + x, "/job/" + x}
	for _, tt := range idReadConfigs {
		t.Run(fmt.Sprintf("n=%d/r=%d", tt.n, tt.r), func(t *testing.T) {
			up := startMemCluster(t, tt.n, tt.r, false, nil)
			writes := up.load(docs, tags)
			ring, err := NewRing(up.urls)
			if err != nil {
				t.Fatal(err)
			}
			xOwners := ring.Owners(x, tt.r)
			for u := range up.members {
				plan, err := faultsim.ParsePeerPlan([]byte(fmt.Sprintf(
					`{"faults":[{"host":"member%d","at":1,"kind":"unreachable","count":-1}]}`, u)))
				if err != nil {
					t.Fatal(err)
				}
				down := startMemCluster(t, tt.n, tt.r, false, func(_ int, net http.RoundTripper) http.RoundTripper {
					return plan.Wrap(net)
				})
				// The writes land where routed ones would have: on every
				// owner's store, without a request to u.
				for id, w := range writes {
					for _, owner := range ring.Owners(id, tt.r) {
						k := slices.Index(down.urls, owner)
						if _, err := down.members[k].store.Ingest(w.doc, id, strings.Split(w.tags, ",")); err != nil {
							t.Fatal(err)
						}
					}
				}
				owner := slices.Contains(xOwners, up.urls[u])
				for i := range down.members {
					if i == u {
						continue
					}
					for _, q := range queries {
						rec := down.do(i, "GET", q, nil)
						switch {
						case !owner && answer(rec) != answer(up.do(i, "GET", q, nil)):
							t.Errorf("%s via router %d, non-owner member %d unreachable: %s, want the all-up answer", q, i, u, answer(rec))
						case owner && (rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" ||
							!strings.Contains(rec.Body.String(), up.urls[u])):
							t.Errorf("%s via router %d, owner member %d unreachable: %d %q (Retry-After %q), want 503 naming %s",
								q, i, u, rec.Code, rec.Body, rec.Header().Get("Retry-After"), up.urls[u])
						}
					}
				}
			}
		})
	}
}

// TestMirrorIDReadsSeeEveryWrite: though an id read asks only the id's
// owners, a replacing write of x acknowledged by any router is in the
// very next id read of x through every other router, owner or not.
func TestMirrorIDReadsSeeEveryWrite(t *testing.T) {
	docs, tags := corpusDocs(12)
	const x = "job-04"
	queries := []string{"/agg?sel=" + x, "/jobs?sel=" + x, "/job/" + x}
	for _, tt := range idReadConfigs {
		t.Run(fmt.Sprintf("n=%d/r=%d", tt.n, tt.r), func(t *testing.T) {
			mc := startMemCluster(t, tt.n, tt.r, false, nil)
			writes := mc.load(docs, tags)
			mc.checkAllRouters(writes, append([]string{"/agg"}, queries...)) // every mirror warm
			for k := 0; k < 2*tt.n; k++ {
				router := k % tt.n
				w := refWrite{docs[(k+5)%len(docs)], tags[k%len(tags)]}
				if err := mc.post(router, w.doc, "id="+x+"&tags="+w.tags); err != nil {
					t.Fatal(err)
				}
				writes[x] = w
				want := reference(t, writes, queries)
				for i := range mc.members {
					if i == router {
						continue
					}
					q := queries[(k+i)%len(queries)]
					if got := answer(mc.do(i, "GET", q, nil)); got != want[q] {
						t.Errorf("write %d via router %d: router %d's next %s does not reflect it\ngot:  %.200s\nwant: %.200s", k, router, i, q, got, want[q])
					}
				}
			}
		})
	}
}

// TestShardRollupsNeedsSince: the member side of the read path has one
// form, the conditional reply to since=<epoch>; anything else is 400.
func TestShardRollupsNeedsSince(t *testing.T) {
	mc := startMemCluster(t, 2, 2, false, nil)
	for _, path := range []string{"/shard/rollups", "/shard/rollups?sel=job-04", "/shard/rollups?since=x", "/shard/rollups?since=-1"} {
		if rec := mc.do(0, "GET", path, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: %d, want 400: %s", path, rec.Code, rec.Body)
		}
	}
	rec := mc.do(0, "GET", "/shard/rollups?since=0", nil)
	if rec.Code != 200 || rec.Header().Get(hdrRollupKind) != profstore.RollupFull.String() {
		t.Errorf("GET /shard/rollups?since=0: %d, kind %q, want 200 and a full reply", rec.Code, rec.Header().Get(hdrRollupKind))
	}
}

// TestMirrorStrictWhenPeerRefused: a warm mirror is no licence to answer
// without a peer. Once the plan refuses member 1, router 0 answers 503 +
// Retry-After — never the 200 its mirror and memo could still render.
func TestMirrorStrictWhenPeerRefused(t *testing.T) {
	docs, tags := corpusDocs(12)
	// Router 0 sends member 1 two legs while warming up (the first-contact
	// full, then an "unchanged"); the outage starts at the third.
	plan, err := faultsim.ParsePeerPlan([]byte(
		`{"faults":[{"host":"member1","at":3,"kind":"unreachable","count":-1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	mc := startMemCluster(t, 3, 1, false, func(i int, net http.RoundTripper) http.RoundTripper {
		if i == 0 {
			return plan.Wrap(net)
		}
		return net
	})
	for k, doc := range docs { // through routers 1 and 2: router 0's request count stays the test's
		if err := mc.post(1+k%2, doc, "tags="+tags[k]); err != nil {
			t.Fatal(err)
		}
	}
	warm := mc.mustGet(0, "/agg")
	if again := mc.mustGet(0, "/agg"); again != warm {
		t.Fatal("warm /agg changed on a quiet cluster")
	}
	for _, q := range mirrorQueries {
		if q == "/job/job-04" {
			q = "/job/job-01" // job-04's only owner is member 0 itself; job-01's is member 1
		}
		rec := mc.do(0, "GET", q, nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s with member 1 refused: %d, want 503 (stale body: %v)", q, rec.Code, rec.Body.String() == warm)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s: 503 without Retry-After", q)
		}
	}
	if got := mc.mustGet(2, "/agg"); got != warm {
		t.Error("a router that reaches every member answers differently")
	}
}

// TestJobNotFoundVsUnreachable: /job/{id} is 404 only when every owner
// said so; an owner that cannot be asked is 503.
func TestJobNotFoundVsUnreachable(t *testing.T) {
	plan, err := faultsim.ParsePeerPlan([]byte(
		`{"faults":[{"host":"member1","at":2,"kind":"unreachable","count":-1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	mc := startMemCluster(t, 2, 2, false, func(i int, net http.RoundTripper) http.RoundTripper {
		if i == 0 {
			return plan.Wrap(net)
		}
		return net
	})
	if rec := mc.do(0, "GET", "/job/nope", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job, owners reachable: %d, want 404", rec.Code)
	}
	if rec := mc.do(0, "GET", "/job/nope", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("unknown job, owner refused: %d, want 503", rec.Code)
	}
}

// TestMirrorRefusesJSONRollups: a member that answers /shard/rollups
// with a JSON job list, the body earlier builds sent, fails the router's
// revalidation leg with an error naming that member; the router answers
// 503 rather than serve a mirror nobody vouched for.
func TestMirrorRefusesJSONRollups(t *testing.T) {
	mc := startMemCluster(t, 2, 1, false, nil)
	peer := mc.urls[1]
	mc.net.mu.Lock()
	mc.net.handlers[strings.TrimPrefix(peer, "http://")] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(hdrRollupEpoch, "7")
		w.Header().Set(hdrRollupKind, profstore.RollupFull.String())
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `[{"id":"j4","cmd":"./relax","tags":["a"],"ranks":2,"bytes":2000,"w":3900000000,`+
			`"sites":[{"n":"MPI_Allreduce","c":40,"t":400000000,"mn":4000000,"mx":20000000,"e":1}],`+
			`"imb":[{"n":"MPI_Allreduce","m":1.5,"j":"j4"}]}]`)
	})
	mc.net.mu.Unlock()
	for _, q := range []string{"/agg", "/job/j4"} { // member 1 owns j4
		rec := mc.do(0, "GET", q, nil)
		if body := rec.Body.String(); rec.Code != http.StatusServiceUnavailable ||
			!strings.Contains(body, peer) || !strings.Contains(body, "wire rollups") {
			t.Errorf("%s over a JSON rollups body: %d %s, want 503 naming %s and the wire decode", q, rec.Code, body, peer)
		}
	}
}

// TestMirrorMemoMatchesReference is the routed twin of profstore's memo
// differential tests: a seeded op sequence of fresh and replacing writes
// that move jobs between tags, through rotating routers, with member
// restarts on their WALs (full replies to every other router) and one
// burst past the change log. After every read, each router's /agg and
// /regress answers must equal a single-node store's over the same writes
// — the fold from empty that profstore pins to the oracle walk — whether
// its accumulators moved by deltas or were rebuilt.
func TestMirrorMemoMatchesReference(t *testing.T) {
	docs, _ := corpusDocs(6)
	mc := startMemCluster(t, 3, 2, true, nil)
	queries := []string{
		"/agg", "/agg?top=2", "/agg?sel=tag:t0", "/agg?sel=tag:t1&top=1",
		"/regress?base=tag:t0&head=tag:t1", "/regress?base=tag:t1&head=tag:t0&threshold=5",
	}
	writes := map[string]refWrite{}
	write := func(router, id, doc, tag int) {
		w := refWrite{docs[doc], fmt.Sprintf("t%d", tag)}
		name := fmt.Sprintf("job-%d", id)
		if err := mc.post(router, w.doc, "id="+name+"&tags="+w.tags); err != nil {
			t.Fatal(err)
		}
		writes[name] = w
	}
	x := uint64(2011)
	rand := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int(x>>33) % n
	}
	for op := 0; op < 48; op++ {
		switch r := rand(10); {
		case op == 30:
			for k := 0; k < 300; k++ { // the change log holds 256
				write(k%3, k%7, k%len(docs), k/7%2)
			}
		case r < 6:
			write(rand(3), rand(7), rand(len(docs)), rand(2))
		case r == 6:
			mc.restart(rand(3))
		default:
			mc.checkAllRouters(writes, queries)
		}
	}
	mc.checkAllRouters(writes, queries)
	var delta, full float64 // since each router's last restart
	for i := range mc.members {
		delta += mc.metric(i, MetricMirrorMemo+`{result="delta"}`)
		full += mc.metric(i, MetricMirrorMemo+`{result="full"}`)
	}
	t.Logf("routed memo lookups: %v delta, %v full", delta, full)
	if delta == 0 || full == 0 {
		t.Errorf("routed reads moved accumulators by %v deltas and %v rebuilds, want both", delta, full)
	}
}
