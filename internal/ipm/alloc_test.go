//go:build !race

package ipm

import "testing"

// The monitor's recording path allocates nothing: every op behind the
// table and Observe benchmarks reads 0 allocs/op. Excluded under -race,
// whose runtime adds bookkeeping allocations.
func TestHotPathZeroAlloc(t *testing.T) {
	ops := []namedOp{
		{"TableUpdateHit", tableUpdateHitOp()},
		{"TableUpdateManyKeys", tableUpdateManyKeysOp()},
		{"MapUpdateManyKeys", mapUpdateManyKeysOp()},
	}
	for _, c := range observeHotOps() {
		ops = append(ops, namedOp{"ObserveHot/" + c.name, c.op})
	}
	for _, c := range ops {
		if allocs := testing.AllocsPerRun(1000, c.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}
