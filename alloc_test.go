//go:build !race

package ipmgo

import (
	"testing"

	"ipmgo/internal/alloctest"
)

// The allocation pins for the root benchmarks, run as tests. Excluded
// under -race, whose runtime adds bookkeeping allocations.

// The monitored hot path allocates nothing, telemetry attached or not,
// and neither does either table under the wrapper's update pattern.
func TestHotPathBenchmarksZeroAlloc(t *testing.T) {
	for _, set := range []struct {
		bench string
		cases []benchCase
	}{
		{"AblationHashTable", hashTableCases},
		{"ObserveTelemetry", observeTelemetryCases},
	} {
		for _, c := range set.cases {
			if allocs := testing.AllocsPerRun(1000, c.newOp(t)); allocs != 0 {
				t.Errorf("%s/%s: %v allocs/op, want 0", set.bench, c.name, allocs)
			}
		}
	}
}

// ensembleRefs are BenchmarkEnsembleParallel's allocs/op and B/op, the
// reference figures its pin allows 30 % above.
var ensembleRefs = map[string][2]float64{
	"j1":                   {17144, 4448472},
	"queue-j1":             {17758, 4826779},
	"j4":                   {17155, 4448888},
	"queue-j4":             {17768, 4827128},
	"device-a100-j4":       {17155, 4450379},
	"device-c2050-j4":      {17156, 4448893},
	"device-cl-generic-j4": {17155, 4448872},
}

// One fig8 quick ensemble allocates what it did when the pin was taken.
func TestEnsembleAllocs(t *testing.T) {
	for _, c := range ensembleCases() {
		ref, ok := ensembleRefs[c.name]
		if !ok {
			t.Errorf("EnsembleParallel/%s has no reference figures", c.name)
			continue
		}
		alloctest.Pin(t, "EnsembleParallel/"+c.name, 3, c.newOp(t), ref[0], ref[1])
	}
}
