//go:build !race

package telemetry

import "testing"

// Recording a span allocates nothing: the op behind BenchmarkSpanRecord
// and BenchmarkSpanRecordParallel. Excluded under -race, whose runtime
// adds bookkeeping allocations.
func TestSpanRecordZeroAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(1000, spanRecordOp(NewRecorder(1<<12))); allocs != 0 {
		t.Errorf("SpanRecord: %v allocs/op, want 0", allocs)
	}
}
