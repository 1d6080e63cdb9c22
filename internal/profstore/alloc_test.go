//go:build !race

package profstore

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ipmgo/internal/alloctest"
	"ipmgo/internal/ipm"
)

// TestIngestSteadyStateAllocs pins the streaming ingest allocation
// budget. The scratch pool and interned-name cache make a warmed-up
// ingest nearly allocation-free: what remains is the Job value, the tag
// slice (none here: the document is untagged), the rollup's three row
// slices and the scanner's four per-document allocations. The bound is
// deliberately loose (the measured figure is 8) but far below the
// ~1100 allocs/op of reading through encoding/xml — a scanner that
// bails on clean documents trips it immediately.
//
// Excluded under -race: the race runtime adds bookkeeping allocations
// that would make the pin meaningless.
func TestIngestSteadyStateAllocs(t *testing.T) {
	doc := syntheticXML(t, 42, 0)
	s := New()
	if _, err := s.Ingest(doc, "warm", nil); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := s.Ingest(doc, "warm", nil); err != nil {
			t.Fatal(err)
		}
	})
	if got > 40 {
		t.Errorf("steady-state ingest allocates %.1f allocs/op, want <= 40 "+
			"(streaming fast path disengaged?)", got)
	}
}

// TestRollupBuildAllocs pins a job's rollup to its three row slices:
// building it from a scanned multi-rank document allocates the
// call-site, kernel and imbalance rows and nothing else.
func TestRollupBuildAllocs(t *testing.T) {
	sink := newRollupSink()
	sink.reset()
	var rep ipm.ParseReport
	if ok, err := ipm.ScanXMLTolerant(syntheticXML(t, 42, 0), sink, &rep); !ok || err != nil {
		t.Fatalf("scan: ok=%v err=%v", ok, err)
	}
	var w Job
	build := func() { w = sink.build("j") }
	build()
	if sink.tasks < 2 || len(w.Sites) == 0 || len(w.Kernels) == 0 || len(w.Imb) == 0 {
		t.Fatalf("document has %d ranks, %d sites, %d kernels, %d imbalance rows; want > 1, > 0, > 0, > 0",
			sink.tasks, len(w.Sites), len(w.Kernels), len(w.Imb))
	}
	if got := testing.AllocsPerRun(200, build); got > 3 {
		t.Errorf("rollupSink.build: %.1f allocs/job, want <= 3", got)
	}
}

// A memo hit allocates nothing: the op behind BenchmarkProfstoreAggCached.
func TestAggCachedZeroAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(1000, aggCachedOp(t)); allocs != 0 {
		t.Errorf("ProfstoreAggCached: %v allocs/op, want 0", allocs)
	}
}

// The ops behind the allocating store benchmarks allocate what they did
// when the pins were taken (the figures below), within 30 %.
func TestStoreBenchmarkAllocs(t *testing.T) {
	stream, _ := ingestStreamOp(t)
	alloctest.Pin(t, "ProfstoreIngest", 1000, ingestOp(t), 10, 1959)
	alloctest.Pin(t, "ProfstoreIngestStream", 20, stream, 512, 118283)
	alloctest.Pin(t, "ProfstoreAgg", 200, aggOp(t), 14, 5144)
	alloctest.Pin(t, "ProfstoreAggAfterIngest", 200, aggAfterIngestOp(t, 4096), 17, 4096)
}

// TestWireAllocs pins the wire codec on the 1024-job corpus. Decoding
// cuts every job, tag and row out of per-body slabs and takes its strings
// from one copy of the body, so it allocates a handful of times per body,
// far inside the gate of 4 per job; each op also allocates what it did
// when its pin was taken, within 30 %.
func TestWireAllocs(t *testing.T) {
	decode := wireDecodeOp(t)
	if perJob := testing.AllocsPerRun(100, decode) / 1024; perJob > 4 {
		t.Errorf("DecodeWireJobs: %.2f allocs/job, want <= 4", perJob)
	}
	alloctest.Pin(t, "WireDecode", 100, decode, 5, 1615110)
	alloctest.Pin(t, "WireEncode", 100, wireEncodeOp(t), 1, 491520)
}

// TestAggAfterIngestIsODelta: a replacing ingest followed by /agg
// allocates the same at 256 and at 4 096 jobs — the accumulator moves by
// the changed id, and no step of the read walks or copies the corpus
// (a Select alone would add 8 B per job).
func TestAggAfterIngestIsODelta(t *testing.T) {
	small, big := aggAfterIngestOp(t, 256), aggAfterIngestOp(t, 4096)
	// No collection inside the measurement, and one unmeasured round of
	// each op first: a collection empties the ingest scratch pool, and
	// the pool's first refill after GOMAXPROCS moves is not the read's
	// cost either.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	alloctest.PerRun(20, small)
	alloctest.PerRun(20, big)
	smallAllocs, smallBytes := alloctest.PerRun(200, small)
	bigAllocs, bigBytes := alloctest.PerRun(200, big)
	t.Logf("ingest + /agg: %.2f allocs, %.2f B at 256 jobs; %.2f allocs, %.2f B at 4096", smallAllocs, smallBytes, bigAllocs, bigBytes)
	if bigAllocs != smallAllocs || bigBytes != smallBytes {
		t.Errorf("ingest + /agg allocates %.1f allocs, %.0f B at 4096 jobs but %.1f, %.0f at 256: the read grows with the corpus",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
}
