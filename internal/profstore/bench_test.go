package profstore

import (
	"fmt"
	"sync/atomic"
	"testing"

	"ipmgo/internal/alloctest"
)

// The store benchmarks back the tentpole claim that the corpus sustains
// concurrent ingest and aggregation: ingest fans out across shards, and
// aggregation reads run against a live, growing store.

// benchCorpus pre-renders n synthetic XML documents (rendering cost is
// not what is being measured).
func benchCorpus(tb testing.TB, n int) [][]byte {
	tb.Helper()
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = syntheticXML(tb, 42, i)
	}
	return docs
}

// benchStore returns a store holding the first n corpus documents under
// ids j0..j(n-1).
func benchStore(tb testing.TB, n int) *Store {
	s := New()
	for i, doc := range benchCorpus(tb, n) {
		if _, err := s.Ingest(doc, fmt.Sprintf("j%d", i), nil); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// The ops below are what one iteration of the benchmark of the same name
// runs; alloc_test.go pins what each allocates.

// ingestOp ingests the next of a 64-document corpus under a fresh id:
// insert, not replacement, pressure. It is safe for concurrent use.
func ingestOp(tb testing.TB) func() {
	docs := benchCorpus(tb, 64)
	s := New()
	var next atomic.Int64
	return func() {
		i := next.Add(1)
		if _, err := s.Ingest(docs[int(i)%len(docs)], fmt.Sprintf("j%d", i), nil); err != nil {
			tb.Fatal(err)
		}
	}
}

// ingestStreamOp re-ingests a 64-document corpus under the ids it
// already holds, so the store size stays constant; bytes is the
// corpus size.
func ingestStreamOp(tb testing.TB) (op func(), bytes int64) {
	docs := benchCorpus(tb, 64)
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = fmt.Sprintf("j%d", i)
		bytes += int64(len(d))
	}
	s := New()
	return func() {
		for j, doc := range docs {
			if _, err := s.Ingest(doc, ids[j], nil); err != nil {
				tb.Fatal(err)
			}
		}
	}, bytes
}

// aggOp aggregates a 100-job corpus on the uncached path (the rollup
// merge), not a memo hit.
func aggOp(tb testing.TB) func() {
	s := benchStore(tb, 100)
	return func() {
		if rep := s.aggregateCold(AggOptions{TopN: 10}); rep.Jobs != 100 {
			tb.Fatalf("jobs = %d", rep.Jobs)
		}
	}
}

// aggCachedOp repeats /agg on an unchanged 100-job store: after the
// first computation every call is an epoch-checked memo hit.
func aggCachedOp(tb testing.TB) func() {
	s := benchStore(tb, 100)
	s.Aggregate(AggOptions{}) // prime the memo
	return func() {
		if rep := s.Aggregate(AggOptions{}); rep.Jobs != 100 {
			tb.Fatalf("jobs = %d", rep.Jobs)
		}
	}
}

// BenchmarkProfstoreIngest measures parallel ingest throughput into the
// sharded store (tolerant parse + WAL-less insert).
func BenchmarkProfstoreIngest(b *testing.B) {
	op := ingestOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			op()
		}
	})
}

// BenchmarkProfstoreIngestStream measures single-goroutine streaming
// ingest over a fixed corpus, reporting MB/s (the paper's operative
// number: what one collector core sustains) alongside ns/op and
// allocs/op. Replacement ingests keep the store size constant so the
// figure isolates the scan → rollup → insert path.
func BenchmarkProfstoreIngestStream(b *testing.B) {
	op, bytes := ingestStreamOp(b)
	b.SetBytes(bytes)
	alloctest.Bench(b, op)
}

// BenchmarkProfstoreAgg measures full-corpus aggregation over a
// 100-job corpus — deliberately pinned to the uncached path (the
// rollup merge), so it tracks the real recompute cost rather than a
// memo hit.
func BenchmarkProfstoreAgg(b *testing.B) { alloctest.Bench(b, aggOp(b)) }

// BenchmarkProfstoreAggCached measures repeated /agg on an unchanged
// store. The acceptance bar is ≥10× faster than BenchmarkProfstoreAgg.
func BenchmarkProfstoreAggCached(b *testing.B) { alloctest.Bench(b, aggCachedOp(b)) }

// BenchmarkProfstoreAggUnderIngest measures aggregation latency while
// parallel writers keep mutating the store — the mixed workload the
// per-shard RWMutex design exists for.
func BenchmarkProfstoreAggUnderIngest(b *testing.B) {
	docs := benchCorpus(b, 64)
	s := New()
	for i, doc := range docs {
		if _, err := s.Ingest(doc, fmt.Sprintf("j%d", i), nil); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	defer close(stop)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Replacement ingests: constant store size, live write load.
				id := fmt.Sprintf("j%d", i%len(docs))
				if _, err := s.Ingest(docs[i%len(docs)], id, nil); err != nil {
					return
				}
				_ = w
			}
		}(w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.Aggregate(AggOptions{}); rep.Jobs != len(docs) {
			b.Fatalf("jobs = %d", rep.Jobs)
		}
	}
}
