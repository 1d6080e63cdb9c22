//go:build !race

package ipm

import (
	"testing"

	"ipmgo/internal/alloctest"
)

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

// The ops behind the reader benchmarks allocate what they did when the
// pins were taken (the figures below), within 30 %: the scanner its
// per-document scratch, the decoder its tokens and the profile.
func TestReaderAllocs(t *testing.T) {
	alloctest.Pin(t, "ScanXML", 200, scanXMLOp(t), 5, 792)
	alloctest.Pin(t, "ParseXMLTolerant", 200, parseXMLTolerantOp(t), 1177, 78910)
}
