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

// aggOp is a cold /agg over a 100-job corpus: the memo's rebuild, the
// fold from empty over Select, rendered — not a memo hit and not an
// accumulator delta.
func aggOp(tb testing.TB) func() {
	s := benchStore(tb, 100)
	return func() {
		if rep := foldJobs(s.Select("")).aggReport(AggOptions{TopN: 10}); rep.Jobs != 100 {
			tb.Fatalf("jobs = %d", rep.Jobs)
		}
	}
}

// aggAfterIngestOp is one replacing ingest into an n-job corpus, then
// /agg: the memo misses, and the whole-corpus accumulator moves by the
// one changed id. Job j holds document j mod 8 and is replaced by a new
// ingest of that document, so the set of names a report lists — and with
// it the size of the report — is the same at every n; the cost must not
// grow with n.
func aggAfterIngestOp(tb testing.TB, n int) func() {
	docs := benchCorpus(tb, 8)
	ids := make([]string, n)
	s := New()
	for j := range ids {
		ids[j] = fmt.Sprintf("j%d", j)
		if _, err := s.Ingest(docs[j%len(docs)], ids[j], nil); err != nil {
			tb.Fatal(err)
		}
	}
	s.Aggregate(AggOptions{}) // build the accumulator
	i := 0
	return func() {
		i++
		j := (i * 7919) % n
		if _, err := s.Ingest(docs[j%len(docs)], ids[j], nil); err != nil {
			tb.Fatal(err)
		}
		if rep := s.Aggregate(AggOptions{}); rep.Jobs != n {
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

// wireCorpus is a 1024-job synthetic corpus, sorted by id, and its wire
// image: one member's full reply to a router.
func wireCorpus(tb testing.TB) (jobs []*Job, image []byte) {
	jobs = benchStore(tb, 1024).WireJobs()
	image, _ = EncodeWireJobs(jobs)
	return jobs, image
}

// wireEncodeOp encodes the wire corpus, as a member answering a full
// resync does.
func wireEncodeOp(tb testing.TB) func() {
	jobs, image := wireCorpus(tb)
	return func() {
		if enc, _ := EncodeWireJobs(jobs); len(enc) != len(image) {
			tb.Fatalf("encoded %d bytes, want %d", len(enc), len(image))
		}
	}
}

// wireDecodeOp decodes the wire corpus, as a router applying that resync
// does.
func wireDecodeOp(tb testing.TB) func() {
	jobs, image := wireCorpus(tb)
	return func() {
		if got, err := DecodeWireJobs(image); err != nil || len(got) != len(jobs) {
			tb.Fatalf("decoded %d jobs (err %v), want %d", len(got), err, len(jobs))
		}
	}
}

// BenchmarkWireEncode and BenchmarkWireDecode measure the two ends of a
// full /shard/rollups reply, reporting the cost per job beside the cost
// per 1024-job body.
func BenchmarkWireEncode(b *testing.B) { benchPerJob(b, wireEncodeOp(b)) }

func BenchmarkWireDecode(b *testing.B) { benchPerJob(b, wireDecodeOp(b)) }

func benchPerJob(b *testing.B, op func()) {
	alloctest.Bench(b, op)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/job")
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
// 100-job corpus — deliberately pinned to the cold path (the fold from
// empty), so it tracks the real rebuild cost rather than a memo hit.
func BenchmarkProfstoreAgg(b *testing.B) { alloctest.Bench(b, aggOp(b)) }

// BenchmarkProfstoreAggAfterIngest measures the write-then-read cycle of
// a 4 096-job store: one replacing ingest, then /agg, which moves the
// accumulator by one id instead of re-walking the corpus.
func BenchmarkProfstoreAggAfterIngest(b *testing.B) {
	alloctest.Bench(b, aggAfterIngestOp(b, 4096))
}

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
