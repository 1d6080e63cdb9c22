package alloctest

import "testing"

var sink []byte

func TestPerRunCountsEachCall(t *testing.T) {
	allocs, bytes := perRun(100, func() { sink = make([]byte, 4096) })
	if allocs != 1 || bytes != 4096 {
		t.Errorf("perRun = %v allocs, %v B per call; want 1, 4096", allocs, bytes)
	}
	if allocs, bytes := perRun(100, func() {}); allocs != 0 || bytes != 0 {
		t.Errorf("perRun(no-op) = %v allocs, %v B per call; want 0, 0", allocs, bytes)
	}
}
