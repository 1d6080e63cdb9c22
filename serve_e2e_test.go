package ipmgo

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"ipmgo/internal/parallel"
	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// The serve e2e scenarios back the `make serve-e2e` target: a real
// ipmserve HTTP surface fed the sample profile from results/ with the
// /agg rollup pinned to a golden, plus the store harness with one
// in-process member, which proves race-clean ingest+query and
// byte-identical output across WAL recovery. Run them with -race;
// `make verify` does.

// serveOn stands up srv.Handler() on a loopback listener and returns the
// base URL. httptest would do, but using net.Listen + http.Serve keeps
// the test on the exact code path cmd/ipmserve runs.
func serveOn(t *testing.T, srv *profstore.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String()
}

func mustGet(t *testing.T, url string) []byte {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestServeE2EIngestResults ingests the checked-in degraded sample
// profile (results/faultdemo_rankdeath.xml, regenerated by `make
// faults`) into a WAL-backed store over HTTP and pins the /agg rollup
// to a golden — then kills the store, recovers from the WAL, and
// demands byte-identical /agg and /regress output from the survivor.
func TestServeE2EIngestResults(t *testing.T) {
	xml, err := os.ReadFile(filepath.Join("results", "faultdemo_rankdeath.xml"))
	if err != nil {
		t.Skipf("sample profile missing (run `make faults`): %v", err)
	}

	wal := filepath.Join(t.TempDir(), "profiles.wal")
	store, _, err := profstore.OpenStore(wal, profstore.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	url := serveOn(t, profstore.NewServer(store, telemetry.NewRegistry()))

	// Ingest through the same client ipmrun -ingest uses. Two tagged
	// copies give /regress a base and head side.
	poster := &profstore.Poster{URL: url}
	for _, in := range []struct{ id, tag string }{
		{"rankdeath-base", "nightly"},
		{"rankdeath-head", "today"},
	} {
		if _, err := poster.PostXML(xml, in.id, []string{in.tag}); err != nil {
			t.Fatalf("ingest %s: %v", in.id, err)
		}
	}

	agg := mustGet(t, url+"/agg")
	golden := filepath.Join("testdata", "serve", "agg_rankdeath.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, agg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (go test -run ServeE2E -update to regenerate): %v", err)
	}
	if !bytes.Equal(agg, want) {
		t.Errorf("/agg differs from golden:\ngot:\n%s\nwant:\n%s", agg, want)
	}

	// The degraded run's fidelity markers must survive the rollup: one
	// rank of four died, and the injected CUDA errors were counted.
	for _, sub := range []string{`"lost_ranks": 2`, `"errors"`} {
		if !bytes.Contains(agg, []byte(sub)) {
			t.Errorf("/agg missing %s:\n%s", sub, agg)
		}
	}
	regress := mustGet(t, url+"/regress?base=tag:nightly&head=tag:today&threshold=5")

	// Recover from the WAL into a fresh store+server: identical bytes.
	store2, st, err := profstore.OpenStore(wal, profstore.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered != 2 || st.Skipped != 0 {
		t.Fatalf("WAL recovery: recovered=%d skipped=%d, want 2/0", st.Recovered, st.Skipped)
	}
	url2 := serveOn(t, profstore.NewServer(store2, telemetry.NewRegistry()))
	if got := mustGet(t, url2+"/agg"); !bytes.Equal(got, agg) {
		t.Errorf("/agg not byte-identical after WAL recovery:\ngot:\n%s\nwant:\n%s", got, agg)
	}
	if got := mustGet(t, url2+"/regress?base=tag:nightly&head=tag:today&threshold=5"); !bytes.Equal(got, regress) {
		t.Error("/regress not byte-identical after WAL recovery")
	}
}

// TestServeE2EAggDeterminismAcrossWorkers closes the loop from simulator
// to query service: four replicas of the rank-death fault scenario are
// run sequentially (-j 1) and 4-way parallel (-j 4), ingested into fresh
// stores, and the /agg and /regress JSON must be byte-identical between
// the two — and stable across repeated GETs, which after the first hit
// are served from the epoch-keyed memo cache.
func TestServeE2EAggDeterminismAcrossWorkers(t *testing.T) {
	queryFor := func(workers int) (agg, regress []byte) {
		xmls := make([][]byte, 4)
		if err := parallel.RunAll(4, workers, func(i int) error {
			_, _, xml := runFaultScenario(t, faultPlanRankDeath)
			xmls[i] = xml
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		store := profstore.New()
		for i, xml := range xmls {
			if _, err := store.Ingest(xml, fmt.Sprintf("fault-%d", i), []string{"faulted"}); err != nil {
				t.Fatal(err)
			}
		}
		url := serveOn(t, profstore.NewServer(store, telemetry.NewRegistry()))
		agg = mustGet(t, url+"/agg")
		if again := mustGet(t, url+"/agg"); !bytes.Equal(agg, again) {
			t.Error("/agg memo hit returned different bytes than the cold response")
		}
		regress = mustGet(t, url+"/regress?base=fault-0&head=fault-1")
		return agg, regress
	}
	aggSeq, regSeq := queryFor(1)
	aggPar, regPar := queryFor(4)
	if !bytes.Equal(aggSeq, aggPar) {
		t.Errorf("/agg differs between -j 1 and -j 4 runs:\n-j 1:\n%s\n-j 4:\n%s", aggSeq, aggPar)
	}
	if !bytes.Equal(regSeq, regPar) {
		t.Error("/regress differs between -j 1 and -j 4 runs")
	}
}

// TestServeE2EConcurrentLoad is the acceptance-scale load test: the
// store harness with one in-process member ingests 120 synthetic jobs
// over HTTP from 8 concurrent workers while 4 readers hammer /agg, /jobs
// and /metrics, then gates /agg, /jobs and /regress byte-identical to a
// reference store on the live member and again after a snapshot and a
// restart. Under -race (make serve-e2e) this is also the data-race proof
// for the store.
func TestServeE2EConcurrentLoad(t *testing.T) {
	rep, err := profstore.Soak(profstore.SoakOptions{
		Jobs: 120, Workers: 8, Readers: 4,
		Dir:  t.TempDir(),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked != 120 {
		t.Errorf("harness acked %d jobs, want 120", rep.Acked)
	}
	if rep.WALRecovered != rep.Jobs {
		t.Errorf("WAL recovered %d of %d jobs", rep.WALRecovered, rep.Jobs)
	}
}
