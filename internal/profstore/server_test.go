package profstore

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipmgo/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newTestServer stands up the full HTTP surface over a fresh in-memory
// store with the base/head fixtures ingested under known ids and tags.
func newTestServer(t *testing.T) (*httptest.Server, *Store) {
	t.Helper()
	store := New()
	if _, err := store.Ingest(fixture(t, "base.xml"), "base", []string{"nightly"}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Ingest(fixture(t, "head.xml"), "head", []string{"today"}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, telemetry.NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, store
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// checkGolden compares body with the checked-in golden JSON fixture
// (go test -update rewrites them).
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("%s differs from golden:\ngot:\n%s\nwant:\n%s", name, body, want)
	}
}

func TestAggGolden(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/agg")
	if code != http.StatusOK {
		t.Fatalf("/agg: %d: %s", code, body)
	}
	checkGolden(t, "agg.golden.json", body)

	// Byte-identical on a second read.
	_, again := get(t, ts.URL+"/agg")
	if !bytes.Equal(body, again) {
		t.Error("/agg differs between two reads of the same corpus")
	}
}

func TestAggGoldenIngestOrderInvariant(t *testing.T) {
	// The same corpus ingested in the opposite order must render the
	// same /agg bytes.
	store := New()
	if _, err := store.Ingest(fixture(t, "head.xml"), "head", []string{"today"}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Ingest(fixture(t, "base.xml"), "base", []string{"nightly"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store, telemetry.NewRegistry()).Handler())
	defer ts.Close()
	_, body := get(t, ts.URL+"/agg")
	checkGolden(t, "agg.golden.json", body)
}

func TestRegressGolden(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/regress?base=base&head=head&threshold=10")
	if code != http.StatusOK {
		t.Fatalf("/regress: %d: %s", code, body)
	}
	checkGolden(t, "regress.golden.json", body)

	// MPI_Allreduce got slower per call, the memcpys faster; the new
	// cudaStreamSynchronize site exists only in head.
	s := string(body)
	for _, want := range []string{
		`"name": "MPI_Allreduce"`,
		`"status": "regressed"`,
		`"status": "improved"`,
		`"status": "head-only"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("/regress response missing %s", want)
		}
	}
}

func TestRegressTagSets(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/regress?base=tag:nightly&head=tag:today")
	if code != http.StatusOK {
		t.Fatalf("tag-set regress: %d: %s", code, body)
	}
	if !strings.Contains(string(body), `"base_jobs": 1`) {
		t.Errorf("tag selector did not resolve: %s", body)
	}
}

func TestRegressErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, url := range []string{
		"/regress",                                  // missing params
		"/regress?base=base&head=nope",              // head matches nothing
		"/regress?base=base&head=head&threshold=-1", // bad threshold
	} {
		if code, _ := get(t, ts.URL+url); code == http.StatusOK {
			t.Errorf("GET %s succeeded, want error", url)
		}
	}
}

func TestJobsAndJobEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("/jobs: %d", code)
	}
	if !strings.Contains(string(body), `"id": "base"`) || !strings.Contains(string(body), `"id": "head"`) {
		t.Errorf("/jobs missing ingested ids: %s", body)
	}
	code, body = get(t, ts.URL+"/job/base")
	if code != http.StatusOK {
		t.Fatalf("/job/base: %d", code)
	}
	if !strings.Contains(string(body), `"expected_ranks": 2`) {
		t.Errorf("/job/base detail incomplete: %s", body)
	}
	if code, _ = get(t, ts.URL+"/job/nope"); code != http.StatusNotFound {
		t.Errorf("/job/nope = %d, want 404", code)
	}
}

// degradedDoc carries every /job/{id} rule the fixtures lack: it
// declares three tasks and holds two; rank 0's error_total (5) wins over
// its entries' sum (1), while rank 1 has none and falls back to its
// entries' (3); rank 0 recovered two monitor-internal errors.
const degradedDoc = `<?xml version="1.0" encoding="UTF-8"?>
<ipm_log version="2.0" command="./degraded" ntasks="3" nhosts="2" wallclock="2.5">
  <task mpi_rank="0" host="n1" wallclock="1.5" error_total="5" monitor_errors="2">
    <region name="ipm_global">
      <func name="MPI_Send" bytes="8" count="4" ttot="0.3" tmin="0.05" tmax="0.1" error_count="1"></func>
      <func name="@CUDA_EXEC_STRM00" bytes="0" count="2" ttot="0.6" tmin="0.2" tmax="0.4"></func>
    </region>
  </task>
  <task mpi_rank="1" host="n2" wallclock="2.5">
    <region name="ipm_global">
      <func name="MPI_Send" bytes="8" count="4" ttot="0.7" tmin="0.1" tmax="0.3" error_count="3"></func>
    </region>
  </task>
</ipm_log>
`

// TestJobViewsGolden pins the /jobs rows and /job/{id} details, JSON and
// HTML, over jobs that between them carry lost ranks, missing snapshots,
// task and entry error totals and monitor errors.
func TestJobViewsGolden(t *testing.T) {
	ts, store := newTestServer(t)
	truncated, err := os.ReadFile(filepath.Join("..", "ipmparse", "testdata", "truncated_midtag.xml"))
	if err != nil {
		t.Fatal(err)
	}
	for id, doc := range map[string][]byte{"truncated": truncated, "degraded": []byte(degradedDoc)} {
		if _, err := store.Ingest(doc, id, []string{"damaged"}); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	for _, q := range []string{"/jobs", "/jobs?sel=tag:damaged&format=html", "/job/base", "/job/head", "/job/truncated", "/job/degraded"} {
		code, body := get(t, ts.URL+q)
		fmt.Fprintf(&out, "== GET %s: %d\n%s", q, code, body)
	}
	checkGolden(t, "jobs.golden.txt", out.Bytes())
}

func TestHTMLViews(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, url := range []string{"/agg?format=html", "/jobs?format=html", "/regress?base=base&head=head&format=html", "/"} {
		code, body := get(t, ts.URL+url)
		if code != http.StatusOK {
			t.Errorf("GET %s: %d", url, code)
			continue
		}
		if !strings.Contains(string(body), "<html>") {
			t.Errorf("GET %s did not render HTML", url)
		}
	}
}

func TestIngestEndpointAndMetrics(t *testing.T) {
	ts, store := newTestServer(t)

	// Ingest a salvaged (truncated) document over HTTP.
	doc := fixture(t, "base.xml")
	resp, err := http.Post(ts.URL+"/ingest?id=cut&tags=partial", "application/xml",
		bytes.NewReader(doc[:len(doc)*2/3]))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"salvaged": true`) {
		t.Errorf("salvage not surfaced in ingest response: %s", body)
	}
	if store.Len() != 3 {
		t.Errorf("store holds %d jobs, want 3", store.Len())
	}

	// A garbage body is a counted parse error.
	resp, err = http.Post(ts.URL+"/ingest", "application/xml", strings.NewReader("nope"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage ingest = %d, want 400", resp.StatusCode)
	}

	// The first /agg folds the corpus from empty, the second is a memo
	// hit, and another top= renders from the same accumulator.
	for _, q := range []string{"/agg", "/agg", "/agg?top=3"} {
		get(t, ts.URL+q)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	m := string(metrics)
	for _, want := range []string{
		MetricMemo + `{result="full"} 1`,
		MetricMemo + `{result="hit"} 1`,
		MetricMemo + `{result="delta"} 1`,
		MetricIngest + " 3",
		fmt.Sprintf("%s %d", MetricIngestBytes, store.IngestedBytes()),
		MetricSalvaged + " 1",
		MetricParseErrors + " 1",
		MetricJobs + " 3",
		fmt.Sprintf(`%s{endpoint="ingest"} 2`, MetricQueries),
		MetricQuerySecs + "_bucket",
		MetricQuerySecs + "_count",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q:\n%s", want, m)
		}
	}
}

func TestIngestBodyLimit(t *testing.T) {
	ts, _ := newTestServer(t)
	huge := bytes.Repeat([]byte("x"), MaxIngestBytes+2)
	resp, err := http.Post(ts.URL+"/ingest", "application/xml", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized ingest = %d, want 413", resp.StatusCode)
	}
}
