package profstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"ipmgo/internal/telemetry"
)

// aggregateCold and regressCold are the uncached query paths: the
// reference the memo is compared against, and what the cold-path
// benchmark measures.
func (s *Store) aggregateCold(opts AggOptions) *AggReport {
	return aggregateJobs(s.Select(opts.Sel), opts)
}

func (s *Store) regressCold(opts RegressOptions) *RegressReport {
	return regressFrom(s.Select(opts.Base), s.Select(opts.Head), opts)
}

// memoTestStore builds a store with n synthetic jobs.
func memoTestStore(t *testing.T, n int) *Store {
	t.Helper()
	s := New()
	for i := 0; i < n; i++ {
		if _, err := s.Ingest(syntheticXML(t, 42, i), fmt.Sprintf("j%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func jsonOf(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAggMemoHit: repeated aggregation of an unchanged store returns the
// cached report, byte-identical to the cold path.
func TestAggMemoHit(t *testing.T) {
	s := memoTestStore(t, 8)
	first := s.Aggregate(AggOptions{})
	second := s.Aggregate(AggOptions{})
	if first != second {
		t.Error("second Aggregate on unchanged store did not hit the memo")
	}
	cold := s.aggregateCold(AggOptions{TopN: 10})
	if !bytes.Equal(jsonOf(t, second), jsonOf(t, cold)) {
		t.Error("memoized report differs from cold-path report")
	}
}

// TestAggMemoInvalidatedOnIngest: any ingest — new id or replacement —
// must drop cached reports.
func TestAggMemoInvalidatedOnIngest(t *testing.T) {
	s := memoTestStore(t, 4)
	before := s.Aggregate(AggOptions{})
	if before.Jobs != 4 {
		t.Fatalf("jobs = %d", before.Jobs)
	}

	if _, err := s.Ingest(syntheticXML(t, 42, 99), "j99", nil); err != nil {
		t.Fatal(err)
	}
	after := s.Aggregate(AggOptions{})
	if after == before {
		t.Error("Aggregate served a stale memo after ingest")
	}
	if after.Jobs != 5 {
		t.Errorf("jobs after ingest = %d, want 5", after.Jobs)
	}
	if !bytes.Equal(jsonOf(t, after), jsonOf(t, s.aggregateCold(AggOptions{TopN: 10}))) {
		t.Error("post-ingest report differs from cold path")
	}

	// Replacement ingest (same id, different content) must invalidate too.
	cached := s.Aggregate(AggOptions{})
	if _, err := s.Ingest(syntheticXML(t, 7, 0), "j99", nil); err != nil {
		t.Fatal(err)
	}
	replaced := s.Aggregate(AggOptions{})
	if replaced == cached {
		t.Error("Aggregate served a stale memo after replacement ingest")
	}
	if !bytes.Equal(jsonOf(t, replaced), jsonOf(t, s.aggregateCold(AggOptions{TopN: 10}))) {
		t.Error("post-replacement report differs from cold path")
	}
}

// TestAggMemoKeyedBySelectorAndTopN: different query shapes do not share
// cache entries.
func TestAggMemoKeyedBySelectorAndTopN(t *testing.T) {
	s := memoTestStore(t, 4)
	all := s.Aggregate(AggOptions{})
	one := s.Aggregate(AggOptions{Sel: "j0"})
	if one.Jobs != 1 || all.Jobs != 4 {
		t.Fatalf("jobs = %d / %d, want 1 / 4", one.Jobs, all.Jobs)
	}
	top1 := s.Aggregate(AggOptions{TopN: 1})
	if len(top1.TopKernels) > 1 {
		t.Errorf("TopN=1 returned %d kernels", len(top1.TopKernels))
	}
	// Default TopN and explicit 10 are the same query.
	if s.Aggregate(AggOptions{TopN: 10}) != all {
		t.Error("TopN 0 (default) and TopN 10 did not share a cache entry")
	}
}

// TestRegressMemo: same contract for /regress.
func TestRegressMemo(t *testing.T) {
	s := memoTestStore(t, 4)
	opts := RegressOptions{Base: "j0", Head: "j1"}
	first := s.Regress(opts)
	if second := s.Regress(opts); second != first {
		t.Error("second Regress on unchanged store did not hit the memo")
	}
	if !bytes.Equal(jsonOf(t, first), jsonOf(t, s.regressCold(RegressOptions{Base: "j0", Head: "j1", Threshold: 10}))) {
		t.Error("memoized regress differs from cold path")
	}
	if _, err := s.Ingest(syntheticXML(t, 42, 50), "j50", nil); err != nil {
		t.Fatal(err)
	}
	if after := s.Regress(opts); after == first {
		t.Error("Regress served a stale memo after ingest")
	}
}

// TestAggMemoConcurrentIngest hammers Aggregate and Regress on several
// selectors while writers ingest and then replace every job, moving it
// to the other tag, then verifies the quiescent store answers
// byte-identically to a freshly built one and to the oracle walk — the
// cache must never pin a mid-ingest view, and the accumulators must
// have moved every replaced job out of its old selection.
func TestAggMemoConcurrentIngest(t *testing.T) {
	const jobs, ids = 32, 16
	docs := make([][]byte, jobs)
	for i := range docs {
		docs[i] = syntheticXML(t, 42, i)
	}
	// Write i lands on id j(i mod 16), tagged t0 the first time and t1
	// when it replaces; writer w owns the ids ≡ w (mod 4), so each id's
	// last write is i = id+16.
	id := func(i int) string { return fmt.Sprintf("j%d", i%ids) }
	tag := func(i int) []string { return []string{fmt.Sprintf("t%d", i/ids)} }

	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < jobs; i += 4 {
				if _, err := s.Ingest(docs[i], id(i), tag(i)); err != nil {
					t.Error(err)
					return
				}
				s.Aggregate(AggOptions{Sel: tag(i)[0]})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			for _, q := range memoAggQueries {
				s.Aggregate(q)
			}
			s.Regress(memoRegressQueries[0])
		}
	}()
	wg.Wait()
	<-done

	ref := New()
	for i := ids; i < jobs; i++ {
		if _, err := ref.Ingest(docs[i], id(i), tag(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range memoAggQueries {
		if got, want := jsonOf(t, s.Aggregate(q)), jsonOf(t, ref.Aggregate(q)); !bytes.Equal(got, want) {
			t.Errorf("quiescent store (post-concurrency) /agg %+v does not match a fresh build", q)
		}
	}
	checkMemoOracle(t, &s.memo, s, "quiescent store")
}

// TestMemoReportEncodedOnce: a memoised report's body is encoded on the
// first serve and the same bytes are served on every later hit — the
// bytes a fresh encoding of the report gives, trailing newline included.
func TestMemoReportEncodedOnce(t *testing.T) {
	s := memoTestStore(t, 4)
	rep := s.Aggregate(AggOptions{})
	first, err := rep.body.get(rep)
	if err != nil {
		t.Fatal(err)
	}
	again := s.Aggregate(AggOptions{})
	second, _ := again.body.get(again)
	if &first[0] != &second[0] {
		t.Error("a memo hit encoded its report again")
	}
	fresh, _ := new(encodedBody).get(rep)
	if !bytes.Equal(first, fresh) || first[len(first)-1] != '\n' {
		t.Errorf("once-encoded body differs from a fresh encoding\ngot:  %s\nwant: %s", first, fresh)
	}
	reg := s.Regress(RegressOptions{Base: "j0", Head: "j1"})
	b1, _ := reg.body.get(reg)
	reg2 := s.Regress(RegressOptions{Base: "j0", Head: "j1"})
	if b2, _ := reg2.body.get(reg2); &b1[0] != &b2[0] {
		t.Error("a /regress memo hit encoded its report again")
	}

	// Through the handler: the same headers and bytes on a miss and a hit.
	h := NewServer(s, telemetry.NewRegistry()).Handler()
	var bodies []string
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/agg?top=3", nil))
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q", ct)
		}
		bodies = append(bodies, rec.Body.String())
	}
	want, _ := new(encodedBody).get(s.aggregateCold(AggOptions{TopN: 3}))
	if bodies[0] != string(want) || bodies[1] != string(want) {
		t.Errorf("GET /agg?top=3 bodies differ from a fresh encoding of the oracle\nmiss: %s\nhit:  %s\nwant: %s", bodies[0], bodies[1], want)
	}
}
