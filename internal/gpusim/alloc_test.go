//go:build !race

package gpusim

import (
	"testing"
	"time"
	"unsafe"

	"ipmgo/internal/alloctest"
	"ipmgo/internal/des"
)

// TestOpSlabsSizedByUse pins what a fresh device carves for a program
// that keeps at most 15 ops in flight: its op bytes — the run's bytes
// less those of the same run with no op — stay under 2×15+8 ops' worth,
// where one fixed 128-op slab alone was 21.5 KB. Excluded under -race,
// whose runtime adds bookkeeping allocations.
func TestOpSlabsSizedByUse(t *testing.T) {
	const inFlight = 15
	program := func(ops int) func() {
		return func() {
			e := des.NewEngine()
			d := NewDevice(e, testSpec())
			e.Spawn("host", func(p *des.Proc) {
				s := d.DefaultStream()
				for round := 0; round < 4; round++ {
					for i := 0; i < ops; i++ {
						d.LaunchKernel(s, "k", fixed(time.Millisecond), [3]int{}, [3]int{}, nil)
					}
					if sig := s.Last().Done(); sig != nil {
						p.Wait(sig)
					}
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, base := alloctest.PerRun(20, program(0))
	_, bytes := alloctest.PerRun(20, program(inFlight))
	opBytes, limit := bytes-base, float64((2*inFlight+8)*unsafe.Sizeof(Op{}))
	if opBytes > limit {
		t.Errorf("%d ops in flight carve %.0f B, want < %.0f", inFlight, opBytes, limit)
	} else {
		t.Logf("%d ops in flight carve %.0f B (limit %.0f)", inFlight, opBytes, limit)
	}
}
