//go:build !race

package cmdqueue

import "testing"

// A warm queue submits, flushes and completes a batch without
// allocating: the op behind BenchmarkQueueSubmit. Excluded under -race,
// whose runtime adds bookkeeping allocations.
func TestQueueSubmitZeroAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(20, queueSubmitOp(t)); allocs != 0 {
		t.Errorf("QueueSubmit: %v allocs/op, want 0", allocs)
	}
}
