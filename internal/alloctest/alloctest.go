// Package alloctest pins what a benchmark's op allocates. A benchmark
// builds its op once and hands it to Bench; the package's test calls the
// same op through Pin (or testing.AllocsPerRun, for an op that must not
// allocate), so the allocs/op and B/op that `go test -bench -benchmem`
// reports are gated in `go test` itself.
package alloctest

import (
	"fmt"
	"runtime"
	"testing"
)

// Bench runs op b.N times on a reset timer, reporting allocations.
func Bench(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// PerRun is testing.AllocsPerRun with the bytes beside the count: it
// calls f once to warm up, then runs times, and returns the heap
// allocations and bytes allocated per call. Like AllocsPerRun it sets
// GOMAXPROCS to 1 while it measures.
func PerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	n := float64(runs)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// slack is how far above its reference figure a pinned count may read.
const slack = 1.30

// Pin fails t when f allocates more than slack times the reference
// allocs or bytes per call, measured by PerRun over runs calls. The
// reference is the figure the op measured when the pin was last taken;
// the measured one is logged, so `go test -v -run <pin>` re-takes it.
// The message gives the window's raw allocation count too: one stray
// allocation in 200 calls fails a zero reference yet rounds to 0.0/op.
func Pin(t testing.TB, name string, runs int, f func(), allocs, bytes float64) {
	t.Helper()
	gotAllocs, gotBytes := PerRun(runs, f)
	msg := fmt.Sprintf("%s: %.1f allocs/op (%.0f in %d calls), %.0f B/op; ceilings %.0f, %.0f (reference %.0f, %.0f + 30 %%)",
		name, gotAllocs, gotAllocs*float64(runs), runs, gotBytes, slack*allocs, slack*bytes, allocs, bytes)
	if gotAllocs > slack*allocs || gotBytes > slack*bytes {
		t.Error(msg)
	} else {
		t.Log(msg)
	}
}
