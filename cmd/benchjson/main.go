// Command benchjson turns `go test -bench` output into a JSON benchmark
// record. It reads the benchmark text from stdin, echoes every line
// through unchanged (so it can sit in a pipe without hiding the run),
// and writes a map of benchmark name to metrics to the file given by -o:
//
//	go test -bench . -benchmem ./... | go run ./cmd/benchjson -o BENCH.json
//
// Only lines in the standard result shape are recorded:
//
//	BenchmarkName-8   1000   1234 ns/op   56 B/op   7 allocs/op
//
// The -N GOMAXPROCS suffix is stripped from the name. Sub-benchmark
// segments of the form key=value (BenchmarkClusterIngest/shards=4) are
// additionally lifted into a "labels" map on the record; the full name
// remains the snapshot key, so every variant is gated independently by
// -threshold. B/op and allocs/op
// are present only when the run used -benchmem; absent metrics are
// omitted from the JSON (encoded as null via pointers would be noise —
// they are simply left at zero with "hasMem": false).
//
// When the run used -count N, the same benchmark appears N times; the
// snapshot keeps the line with the lowest ns/op. The minimum is the
// standard noise-floor estimator for microbenchmarks: scheduling and
// frequency jitter only ever add time, so the fastest repetition is the
// closest to the code's true cost.
//
// With -compare OLD.json the command additionally prints a delta table
// (ns/op, allocs/op, B/op) for every benchmark present in both the old
// snapshot and the current run, so successive PR snapshots
// (BENCH_pr1.json, BENCH_pr2.json, ...) can be diffed in CI:
//
//	go test -bench . -benchmem ./... | go run ./cmd/benchjson -o BENCH_pr2.json -compare BENCH_pr1.json
//
// With -threshold PCT (alongside -compare) the command becomes a CI
// gate on what repeats from box to box: any benchmark whose allocs/op or
// B/op regressed by more than PCT percent — or whose allocs/op left zero
// — is listed and the command exits non-zero (see `make bench-check`).
// A benchmark whose own -count repetitions disagree on those counts by
// more than PCT percent (one that races a concurrent writer, say) is
// marked and not gated: its counts measure the run, not the code.
// The ns/op delta is printed for information and never gates: against a
// committed snapshot it measures the box as much as the code. Timing
// claims are settled by paired parent/change runs of bench/run.sh.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line's metrics.
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"` // present when the benchmark used b.SetBytes
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	HasMem      bool    `json:"has_mem"` // true when -benchmem metrics were present
	// Labels are the key=value sub-benchmark segments of the name
	// (BenchmarkClusterIngest/shards=4 → {"shards": "4"}), so snapshot
	// consumers can select variants without re-parsing names. The full
	// name, labels included, stays the map key: each variant is compared
	// and gated separately.
	Labels map[string]string `json:"labels,omitempty"`
}

func main() {
	out := flag.String("o", "", "output JSON file (required)")
	compare := flag.String("compare", "", "previous snapshot to print ns/op deltas against")
	threshold := flag.Float64("threshold", 0, "with -compare: exit non-zero when any allocs/op or B/op regression exceeds this percentage")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -o FILE is required")
		os.Exit(2)
	}
	results := make(map[string]Result)
	spans := make(map[string]memSpan)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if name, r, ok := parseLine(line); ok {
			if prev, seen := results[name]; !seen || r.NsPerOp < prev.NsPerOp {
				results[name] = r
			}
			span, seen := spans[name]
			if !seen {
				span = spanOf(r)
			}
			spans[name] = span.widen(r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if err := writeJSON(*out, results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark(s) to %s\n", len(results), *out)
	if *compare != "" {
		regressed, err := printComparison(os.Stderr, *compare, results, spans, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: compare:", err)
			os.Exit(1)
		}
		if *threshold > 0 && len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: %d benchmark(s) regressed beyond %.1f%%:\n", len(regressed), *threshold)
			for _, n := range regressed {
				fmt.Fprintf(os.Stderr, "benchjson:   %s\n", n)
			}
			os.Exit(3)
		}
	}
}

// memSpan is the range of -benchmem counts a benchmark showed across its
// -count repetitions.
type memSpan struct{ loAllocs, hiAllocs, loBytes, hiBytes int64 }

func spanOf(r Result) memSpan {
	return memSpan{r.AllocsPerOp, r.AllocsPerOp, r.BytesPerOp, r.BytesPerOp}
}

func (s memSpan) widen(r Result) memSpan {
	return memSpan{
		min(s.loAllocs, r.AllocsPerOp), max(s.hiAllocs, r.AllocsPerOp),
		min(s.loBytes, r.BytesPerOp), max(s.hiBytes, r.BytesPerOp),
	}
}

// repeats reports whether the repetitions agree within pct percent, i.e.
// whether the counts are a property of the code rather than of the run.
func (s memSpan) repeats(pct float64) bool {
	within := func(lo, hi int64) bool { return float64(hi) <= float64(lo)*(1+pct/100) }
	return within(s.loAllocs, s.hiAllocs) && within(s.loBytes, s.hiBytes)
}

// printComparison renders a delta table between a previous snapshot and
// the current results, for the benchmarks present in both, and returns
// the names whose allocs/op or B/op regression exceeds threshold percent
// (empty when threshold is zero). spans holds each benchmark's range over
// the run's repetitions; one that does not repeat is not gated.
func printComparison(w io.Writer, oldPath string, cur map[string]Result, spans map[string]memSpan, threshold float64) ([]string, error) {
	data, err := os.ReadFile(oldPath)
	if err != nil {
		return nil, err
	}
	old := make(map[string]Result)
	if err := json.Unmarshal(data, &old); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", oldPath, err)
	}
	names := make([]string, 0, len(cur))
	for n := range cur {
		if _, ok := old[n]; ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(w, "benchjson: no common benchmarks with %s\n", oldPath)
		return nil, nil
	}
	sort.Strings(names)
	var regressed []string
	fmt.Fprintf(w, "benchjson: ns/op (informational), allocs/op and B/op vs %s\n", oldPath)
	fmt.Fprintf(w, "%-50s %12s %12s %10s %12s %10s %10s\n", "benchmark", "old ns/op", "new ns/op", "ns delta", "allocs delta", "B delta", "MB/s")
	for _, n := range names {
		o, c := old[n], cur[n]
		delta := "n/a"
		if o.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(c.NsPerOp-o.NsPerOp)/o.NsPerOp)
		}
		// The gate is on allocation counts and bytes: they are a property
		// of the code, so a regression there is a code change, not
		// scheduler noise.
		allocDelta, bytesDelta, bad := "n/a", "n/a", false
		if o.HasMem && c.HasMem {
			var badAllocs, badBytes bool
			allocDelta, badAllocs = memDelta(o.AllocsPerOp, c.AllocsPerOp, threshold)
			bytesDelta, badBytes = memDelta(o.BytesPerOp, c.BytesPerOp, threshold)
			// An allocation-free benchmark that starts allocating has no
			// percentage, and is the regression the 0 allocs/op pins exist
			// for. (B/op is a truncated mean, which one stray runtime
			// allocation can lift off zero: that alone does not gate.)
			leftZero := threshold > 0 && o.AllocsPerOp == 0 && c.AllocsPerOp > 0
			bad = badAllocs || badBytes || leftZero
		}
		varies := threshold > 0 && !spans[n].repeats(threshold)
		// Throughput is informational, like the ns/op it moves inversely
		// with: shown when either snapshot carries it.
		mbs := "n/a"
		switch {
		case o.MBPerSec > 0 && c.MBPerSec > 0:
			mbs = fmt.Sprintf("%.0f->%.0f", o.MBPerSec, c.MBPerSec)
		case c.MBPerSec > 0:
			mbs = fmt.Sprintf("%.0f", c.MBPerSec)
		}
		line := fmt.Sprintf("%-50s %12.2f %12.2f %10s %12s %10s %10s", n, o.NsPerOp, c.NsPerOp, delta, allocDelta, bytesDelta, mbs)
		switch {
		case varies:
			line += " (counts vary across repetitions: not gated)"
		case bad:
			line += " <-- REGRESSION"
			regressed = append(regressed, n)
		}
		fmt.Fprintln(w, line)
	}
	return regressed, nil
}

// memDelta renders the change of a -benchmem count and reports whether it
// regressed beyond threshold percent.
func memDelta(old, cur int64, threshold float64) (string, bool) {
	switch {
	case old == cur:
		return "+0.0%", false
	case old == 0:
		return fmt.Sprintf("0->%d", cur), false // no percentage off zero
	}
	pct := 100 * float64(cur-old) / float64(old)
	return fmt.Sprintf("%+.1f%%", pct), threshold > 0 && pct > threshold
}

// parseLine extracts a benchmark result from one output line. Returns
// ok=false for everything that is not a result line (headers, PASS, ok).
func parseLine(line string) (string, Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	r := Result{Iterations: iters}
	name := f[0]
	// Strip the -GOMAXPROCS suffix go test appends to the name.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	// Lift key=value sub-benchmark segments (b.Run("shards=4", ...))
	// into structured labels.
	for _, seg := range strings.Split(name, "/")[1:] {
		if k, v, ok := strings.Cut(seg, "="); ok && k != "" {
			if r.Labels == nil {
				r.Labels = make(map[string]string)
			}
			r.Labels[k] = v
		}
	}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				r.NsPerOp = v
				seen = true
			}
		case "MB/s":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				r.MBPerSec = v
			}
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.BytesPerOp = v
				r.HasMem = true
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.AllocsPerOp = v
				r.HasMem = true
			}
		}
	}
	if !seen {
		return "", Result{}, false
	}
	return name, r, true
}

func writeJSON(path string, results map[string]Result) error {
	// Deterministic key order: marshal via a sorted intermediate so the
	// file diffs cleanly between runs.
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("{\n")
	for i, n := range names {
		b, err := json.Marshal(results[n])
		if err != nil {
			return err
		}
		fmt.Fprintf(&sb, "  %q: %s", n, b)
		if i < len(names)-1 {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("}\n")
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
