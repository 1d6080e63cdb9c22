//go:build !race

package profstore

import (
	"testing"

	"ipmgo/internal/alloctest"
)

// TestIngestSteadyStateAllocs pins the streaming ingest allocation
// budget. The scratch pool and interned-name cache make a warmed-up
// ingest nearly allocation-free: what remains is the Job value, the
// retained raw copy of the document, the tag slice and the rollup's
// output maps. The bound is deliberately loose (the measured figure is
// ~17) but far below the ~1100 allocs/op of the DOM route — a
// regression back to per-token boxing trips it immediately.
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
	alloctest.Pin(t, "ProfstoreIngest", 1000, ingestOp(t), 17, 8330)
	alloctest.Pin(t, "ProfstoreIngestStream", 20, stream, 961, 526892)
	alloctest.Pin(t, "ProfstoreAgg", 200, aggOp(t), 37, 5872)
}
