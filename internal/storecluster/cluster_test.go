package storecluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ipmgo/internal/faultsim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
)

// testCluster is one in-process cluster: N members, each serving its
// cluster handler on a real listener.
type testCluster struct {
	urls    []string
	stores  []*profstore.Store
	members []*Cluster
	servers []*http.Server
}

// startCluster brings up n members with replication r. Listeners are
// reserved first so every member knows the full membership before it
// starts serving.
func startCluster(t *testing.T, n, r int, transport http.RoundTripper) *testCluster {
	t.Helper()
	tc := &testCluster{}
	listeners := make([]net.Listener, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		tc.urls = append(tc.urls, "http://"+ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		store := profstore.New()
		reg := telemetry.NewRegistry()
		local := profstore.NewServer(store, reg).Handler()
		cl, err := New(Config{
			Self:     tc.urls[i],
			Members:  tc.urls,
			Replicas: r,
			Store:    store,
			Local:    local,
			Registry: reg,
			Recorder: telemetry.NewRecorder(1024),
			// Tight retry budget: tests that kill peers should not sit in
			// default backoff.
			Retry:     faultsim.RetryPolicy{MaxAttempts: 3},
			Transport: transport,
			Timeout:   5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: cl.Handler()}
		go srv.Serve(listeners[i])
		tc.stores = append(tc.stores, store)
		tc.members = append(tc.members, cl)
		tc.servers = append(tc.servers, srv)
	}
	t.Cleanup(func() {
		for _, srv := range tc.servers {
			srv.Close()
		}
	})
	return tc
}

// corpusDocs renders nDocs deterministic synthetic profiles in two tag
// batches, the shape /regress compares.
func corpusDocs(nDocs int) (docs [][]byte, tags []string) {
	for i := 0; i < nDocs; i++ {
		var buf bytes.Buffer
		if err := ipm.WriteXML(&buf, profstore.SyntheticProfile(2011, i)); err != nil {
			panic(err)
		}
		docs = append(docs, buf.Bytes())
		tags = append(tags, fmt.Sprintf("clu,batch:%d", i%2))
	}
	return docs, tags
}

func postDoc(t *testing.T, base string, doc []byte, tags string) string {
	t.Helper()
	code, body := post(t, base, doc, "tags="+tags)
	if code != 200 {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	return body
}

func post(t *testing.T, base string, doc []byte, query string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/ingest?"+query, "application/xml", bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// postAnswer is an ingest answer as the identity checks compare it: the
// status code, then the body.
func postAnswer(t *testing.T, base string, doc []byte, query string) string {
	t.Helper()
	code, body := post(t, base, doc, query)
	return fmt.Sprintf("%d %s", code, body)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func mustGet(t *testing.T, url string) string {
	t.Helper()
	code, body := get(t, url)
	if code != 200 {
		t.Fatalf("GET %s: %d: %s", url, code, body)
	}
	return body
}

// statusBody is a response as the identity checks compare it: the
// status code, then the body.
func statusBody(t *testing.T, url string) string {
	t.Helper()
	code, body := get(t, url)
	return fmt.Sprintf("%d %s", code, body)
}

// referenceAnswers ingests the corpus into a plain single node, doc i
// under the ingest query params[i], and returns its answer to each
// ingest and to each query.
func referenceAnswers(t *testing.T, docs [][]byte, params []string, queries []string) (ingests []string, answers map[string]string) {
	t.Helper()
	ts := httptest.NewServer(profstore.NewServer(profstore.New(), telemetry.NewRegistry()).Handler())
	t.Cleanup(ts.Close)
	for i, doc := range docs {
		ingests = append(ingests, postAnswer(t, ts.URL, doc, params[i]))
	}
	answers = make(map[string]string, len(queries))
	for _, q := range queries {
		answers[q] = statusBody(t, ts.URL+q)
	}
	return ingests, answers
}

// clusterQueries are the routed reads held to single-node bytes: every
// query endpoint, one /job/{id} per tag batch of docs (see corpusDocs),
// an unknown id, and the id and tag of TestClusterByteIdentity's
// non-UTF-8 probe.
func clusterQueries(docs [][]byte) []string {
	return []string{
		"/agg",
		"/agg?sel=tag:clu&top=3",
		"/agg?sel=tag:batch:0",
		"/jobs",
		"/jobs?sel=tag:batch:1",
		"/jobs?format=html",
		"/job/" + profstore.DeriveID(docs[0]),
		"/job/" + profstore.DeriveID(docs[1]),
		"/job/unknown",
		"/job/j%FF",
		"/agg?sel=tag:t%FE",
		"/regress?base=tag:batch:0&head=tag:batch:1&threshold=5",
	}
}

// TestClusterByteIdentity is the tentpole acceptance test: /agg,
// /regress, /jobs and /job/{id} answer byte-identically on 1-, 2- and
// 4-member clusters, for every router choice, replication factor 1 to 3,
// and a reversed ingest order. So does POST /ingest: every corpus
// document through its router, and through every router, owner or not,
// a salvaged (truncated) document, one no reader accepts, and one whose
// id and tag are not UTF-8, which the queries then read back.
func TestClusterByteIdentity(t *testing.T) {
	docs, tags := corpusDocs(12)
	queries := clusterQueries(docs)
	var params []string
	for _, tag := range tags {
		params = append(params, "tags="+tag)
	}
	probes := []struct {
		doc   []byte
		query string
	}{
		{docs[0][:len(docs[0])*2/3], "tags=probe"},
		{[]byte("not an ipm log"), "tags=probe"},
		{docs[1], "id=j%FF&tags=t%FE"},
	}
	all := append([][]byte(nil), docs...)
	for _, p := range probes {
		all, params = append(all, p.doc), append(params, p.query)
	}
	wantIngest, want := referenceAnswers(t, all, params, queries)
	if !strings.Contains(wantIngest[len(docs)], `"salvaged": true`) || !strings.HasPrefix(wantIngest[len(docs)+1], "400 ") {
		t.Fatalf("probes are not one salvaged and one rejected document: %q", wantIngest[len(docs):])
	}

	for _, tt := range []struct {
		members, replicas int
		reverse           bool
	}{
		{1, 1, false},
		{2, 1, false},
		{2, 2, true},
		{4, 2, false},
		{4, 3, true},
	} {
		name := fmt.Sprintf("n=%d/r=%d/reverse=%v", tt.members, tt.replicas, tt.reverse)
		t.Run(name, func(t *testing.T) {
			tc := startCluster(t, tt.members, tt.replicas, nil)
			for i := range docs {
				k := i
				if tt.reverse {
					k = len(docs) - 1 - i
				}
				// Rotate the router so placement does not depend on who
				// accepted the write.
				if got := postAnswer(t, tc.urls[k%len(tc.urls)], docs[k], params[k]); got != wantIngest[k] {
					t.Errorf("ingest of doc %d: answer differs from single-node reference\ngot:  %s\nwant: %s", k, got, wantIngest[k])
				}
			}
			for pi, p := range probes {
				for ri, router := range tc.urls {
					if got, want := postAnswer(t, router, p.doc, p.query), wantIngest[len(docs)+pi]; got != want {
						t.Errorf("ingest of probe %d via router %d: answer differs from single-node reference\ngot:  %s\nwant: %s", pi, ri, got, want)
					}
				}
			}
			for _, q := range queries {
				for ri, router := range tc.urls {
					got := statusBody(t, router+q)
					if got != want[q] {
						t.Errorf("%s via router %d: response differs from single-node reference\ngot:  %.200s\nwant: %.200s", q, ri, got, want[q])
					}
				}
			}
		})
	}
}

// TestClusterReplicationPlacement: every acked job is on exactly the R
// ring owners, and the replicas hold identical wire rollups.
func TestClusterReplicationPlacement(t *testing.T) {
	docs, tags := corpusDocs(10)
	tc := startCluster(t, 3, 2, nil)
	ring := tc.members[0].Ring()
	for i, doc := range docs {
		var resp struct {
			ID string `json:"id"`
		}
		body := postDoc(t, tc.urls[i%3], doc, tags[i])
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		owners := ring.Owners(resp.ID, 2)
		for si, store := range tc.stores {
			has := store.Get(resp.ID) != nil
			shouldHave := owners[0] == tc.urls[si] || owners[1] == tc.urls[si]
			if has != shouldHave {
				t.Errorf("job %s on member %d: present=%v, owner=%v", resp.ID, si, has, shouldHave)
			}
		}
	}
}

// startClusterWithTransportOn rebuilds member i's router over the same
// store and membership but a (fault-injecting) transport, returning the
// handler to drive in-process. The original member keeps serving its
// listener; peers are reached through the new transport.
func startClusterWithTransportOn(t *testing.T, tc *testCluster, i, r int, transport http.RoundTripper) http.Handler {
	t.Helper()
	reg := telemetry.NewRegistry()
	local := profstore.NewServer(tc.stores[i], reg).Handler()
	cl, err := New(Config{
		Self: tc.urls[i], Members: tc.urls, Replicas: r,
		Store: tc.stores[i], Local: local, Registry: reg,
		Retry: faultsim.RetryPolicy{
			MaxAttempts: 2,
			Backoff:     faultsim.Dur(time.Millisecond),
			MaxBackoff:  faultsim.Dur(2 * time.Millisecond),
		},
		Transport: transport,
		Timeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl.Handler()
}

func doReq(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// metricOf reads one sample off h's /metrics, 0 if absent.
func metricOf(t *testing.T, h http.Handler, sample string) float64 {
	t.Helper()
	rec := doReq(t, h, "GET", "/metrics", nil)
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d: %s", rec.Code, rec.Body)
	}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			var v float64
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestClusterIngestIdempotent: re-posting the same document through a
// different router replaces, never duplicates, and /agg is unchanged.
func TestClusterIngestIdempotent(t *testing.T) {
	docs, tags := corpusDocs(6)
	tc := startCluster(t, 3, 2, nil)
	for i, doc := range docs {
		postDoc(t, tc.urls[0], doc, tags[i])
	}
	before := mustGet(t, tc.urls[1]+"/agg")
	for i, doc := range docs {
		postDoc(t, tc.urls[2], doc, tags[i])
	}
	after := mustGet(t, tc.urls[1]+"/agg")
	if before != after {
		t.Error("re-ingest through another router changed /agg")
	}
	total := 0
	for _, st := range tc.stores {
		total += st.Len()
	}
	if total != 2*len(docs) {
		t.Errorf("total stored copies = %d, want %d (R=2, no duplicates)", total, 2*len(docs))
	}
}

// TestClusterQuorum: with N=3 R=3, one dead owner still acks (2/3
// quorum); two dead owners answer 503 with Retry-After; and strict
// reads answer 503 while a member is unreachable.
func TestClusterQuorum(t *testing.T) {
	docs, _ := corpusDocs(2)
	tc := startCluster(t, 3, 3, nil)

	// Fault plan: requests to member 1 always refused from now on.
	host1 := strings.TrimPrefix(tc.urls[1], "http://")
	plan, err := faultsim.ParsePeerPlan([]byte(fmt.Sprintf(
		`{"faults":[{"host":"%s","at":1,"kind":"unreachable","count":-1}]}`, host1)))
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild member 0's router with the faulty transport; its listener
	// stays as-is, we talk to the Cluster handler directly.
	faulty := startClusterWithTransportOn(t, tc, 0, 3, plan.Wrap(nil))

	// One dead owner of three: quorum 2 still reached.
	resp := doReq(t, faulty, "POST", "/ingest", docs[0])
	if resp.Code != 200 {
		t.Fatalf("ingest with 1 dead owner: %d: %s", resp.Code, resp.Body.String())
	}

	// Reads must be strict: the scatter cannot verify completeness.
	resp = doReq(t, faulty, "GET", "/agg", nil)
	if resp.Code != 503 {
		t.Fatalf("scatter with dead peer: %d, want 503", resp.Code)
	}
	if resp.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	// Two dead owners: below quorum, 503 + Retry-After.
	host2 := strings.TrimPrefix(tc.urls[2], "http://")
	plan2, err := faultsim.ParsePeerPlan([]byte(fmt.Sprintf(
		`{"faults":[{"host":"%s","at":1,"kind":"unreachable","count":-1},
		            {"host":"%s","at":1,"kind":"unreachable","count":-1}]}`, host1, host2)))
	if err != nil {
		t.Fatal(err)
	}
	faulty2 := startClusterWithTransportOn(t, tc, 0, 3, plan2.Wrap(nil))
	httpErrs := metricOf(t, faulty2, profstore.MetricHTTPErrors)
	resp = doReq(t, faulty2, "POST", "/ingest", docs[1])
	if resp.Code != 503 {
		t.Fatalf("ingest with 2 dead owners: %d, want 503: %s", resp.Code, resp.Body.String())
	}
	if resp.Header().Get("Retry-After") == "" {
		t.Error("quorum failure 503 without Retry-After")
	}
	if got := metricOf(t, faulty2, profstore.MetricHTTPErrors); got != httpErrs+1 {
		t.Errorf("quorum failure moved %s %v -> %v, want +1", profstore.MetricHTTPErrors, httpErrs, got)
	}
}
