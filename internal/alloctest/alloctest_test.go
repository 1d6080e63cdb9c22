package alloctest

import (
	"fmt"
	"strings"
	"testing"
)

var sink []byte

func TestPerRunCountsEachCall(t *testing.T) {
	allocs, bytes := PerRun(100, func() { sink = make([]byte, 4096) })
	if allocs != 1 || bytes != 4096 {
		t.Errorf("PerRun = %v allocs, %v B per call; want 1, 4096", allocs, bytes)
	}
	if allocs, bytes := PerRun(100, func() {}); allocs != 0 || bytes != 0 {
		t.Errorf("PerRun(no-op) = %v allocs, %v B per call; want 0, 0", allocs, bytes)
	}
}

// captureTB records what Pin reports instead of reporting it.
type captureTB struct {
	testing.TB
	errors, logs []string
}

func (c *captureTB) Helper()           {}
func (c *captureTB) Error(args ...any) { c.errors = append(c.errors, fmt.Sprint(args...)) }
func (c *captureTB) Log(args ...any)   { c.logs = append(c.logs, fmt.Sprint(args...)) }

// TestPinReportsRawCount: one allocation in a window fails a zero
// reference, and the failure gives the count, where the per-call mean
// alone would print as 0.0.
func TestPinReportsRawCount(t *testing.T) {
	calls := 0
	once := func() { // allocates on the first measured call only
		if calls++; calls == 2 {
			sink = make([]byte, 16)
		}
	}
	c := &captureTB{TB: t}
	Pin(c, "once", 200, once, 0, 1)
	if len(c.errors) != 1 || !strings.Contains(c.errors[0], "0.0 allocs/op (1 in 200 calls)") {
		t.Errorf("Pin reported errors %q, logs %q; want one error with (1 in 200 calls)", c.errors, c.logs)
	}
}
