//go:build !race

package cudart

import (
	"testing"

	"ipmgo/internal/alloctest"
	"ipmgo/internal/des"
)

// submitRefs are BenchmarkRuntimeSubmit's allocs/op and B/op, the
// reference figures its pin allows 30 % above.
var submitRefs = map[string][2]float64{
	"launch":      {0, 0},
	"eventrecord": {0, 0},
	"memcpyasync": {1, 128},
	"memcpy":      {1, 128},
}

// Each device-submitting call allocates what it did when the pin was
// taken. Excluded under -race, whose runtime adds bookkeeping
// allocations.
func TestRuntimeSubmitAllocs(t *testing.T) {
	for _, c := range submitCases {
		ref, ok := submitRefs[c.name]
		if !ok {
			t.Errorf("RuntimeSubmit/%s has no reference figures", c.name)
			continue
		}
		inHost(t, func(p *des.Proc, rt *Runtime) {
			alloctest.Pin(t, "RuntimeSubmit/"+c.name, 200, c.newOp(t, p, rt), ref[0], ref[1])
		})
	}
}
