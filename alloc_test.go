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
	"j1":                   {18853, 7283139},
	"queue-j1":             {19477, 7659464},
	"j4":                   {18868, 7283784},
	"queue-j4":             {19492, 7660128},
	"device-a100-j4":       {18866, 7285227},
	"device-c2050-j4":      {18868, 7283779},
	"device-cl-generic-j4": {18867, 7283712},
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
