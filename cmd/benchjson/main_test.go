package main

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
)

// The -threshold gate is on allocs/op and B/op only: ns/op against a
// committed snapshot is printed, never failed on.
func TestThresholdGatesMemoryNotTime(t *testing.T) {
	mem := func(ns float64, bytes, allocs int64) Result {
		return Result{NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs, HasMem: true}
	}
	old := map[string]Result{
		"BenchmarkSlowBox":     mem(100, 0, 0),
		"BenchmarkNowAllocs":   mem(100, 0, 0),
		"BenchmarkStrayByte":   mem(100, 0, 0),
		"BenchmarkMoreAllocs":  mem(100, 100, 10),
		"BenchmarkMoreBytes":   mem(100, 100, 10),
		"BenchmarkWithinNoise": mem(100, 100, 10),
		"BenchmarkRacesWriter": mem(100, 100, 2),
		"BenchmarkNoMem":       {NsPerOp: 100},
	}
	cur := map[string]Result{
		"BenchmarkSlowBox":     mem(900, 0, 0),
		"BenchmarkNowAllocs":   mem(100, 16, 1),
		"BenchmarkStrayByte":   mem(100, 1, 0),
		"BenchmarkMoreAllocs":  mem(100, 100, 14),
		"BenchmarkMoreBytes":   mem(100, 140, 10),
		"BenchmarkWithinNoise": mem(50, 120, 12),
		"BenchmarkRacesWriter": mem(100, 300, 4),
		"BenchmarkNoMem":       {NsPerOp: 900},
	}
	// Every benchmark repeated to the byte, except the one whose count
	// depends on how a concurrent writer was scheduled.
	spans := make(map[string]memSpan)
	for n, r := range cur {
		spans[n] = spanOf(r)
	}
	spans["BenchmarkRacesWriter"] = spans["BenchmarkRacesWriter"].widen(mem(90, 900, 9))
	path := filepath.Join(t.TempDir(), "old.json")
	if err := writeJSON(path, old); err != nil {
		t.Fatal(err)
	}
	got, err := printComparison(io.Discard, path, cur, spans, 30)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BenchmarkMoreAllocs", "BenchmarkMoreBytes", "BenchmarkNowAllocs"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("regressed = %v, want %v", got, want)
	}
	if got, err := printComparison(io.Discard, path, cur, spans, 0); err != nil || len(got) != 0 {
		t.Errorf("without -threshold: regressed = %v, err = %v; want none", got, err)
	}
}
