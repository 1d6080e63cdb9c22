package profstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
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

// TestAggMemoConcurrentIngest hammers Aggregate while writers mutate the
// store, then verifies the quiescent store answers byte-identically to a
// freshly built one — the cache must never pin a mid-ingest view.
func TestAggMemoConcurrentIngest(t *testing.T) {
	const jobs = 32
	docs := make([][]byte, jobs)
	for i := range docs {
		docs[i] = syntheticXML(t, 42, i)
	}

	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < jobs; i += 4 {
				if _, err := s.Ingest(docs[i], fmt.Sprintf("j%d", i), nil); err != nil {
					t.Error(err)
					return
				}
				s.Aggregate(AggOptions{})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.Aggregate(AggOptions{})
		}
	}()
	wg.Wait()
	<-done

	ref := New()
	for i, doc := range docs {
		if _, err := ref.Ingest(doc, fmt.Sprintf("j%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	got := jsonOf(t, s.Aggregate(AggOptions{}))
	want := jsonOf(t, ref.Aggregate(AggOptions{}))
	if !bytes.Equal(got, want) {
		t.Error("quiescent store (post-concurrency) does not match a fresh build")
	}
}
