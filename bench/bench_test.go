package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The op stream is a pure function of the seed: same seed, same ops;
// another seed, other ops; and each client replaces only its own ids.
func TestOpStreamIsPureFunctionOfSeed(t *testing.T) {
	stream := func(seed uint64, mix mixKind, client int) []op {
		ops := make([]op, 400)
		for i := range ops {
			ops[i] = opAt(seed, mix, client, 2, i, 64, 128)
		}
		return ops
	}
	for _, mix := range []mixKind{mixWrite, mixRead} {
		a, b := stream(7, mix, 0), stream(7, mix, 0)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("mix %d: same seed gave different streams", mix)
		}
		if reflect.DeepEqual(a, stream(8, mix, 0)) {
			t.Errorf("mix %d: seeds 7 and 8 gave the same stream", mix)
		}
		if reflect.DeepEqual(a, stream(7, mix, 1)) {
			t.Errorf("mix %d: clients 0 and 1 gave the same stream", mix)
		}
	}
	writes, probes, reads := 0, 0, 0
	for _, o := range stream(7, mixWrite, 0) {
		switch o.Kind {
		case opIngest:
			writes++
		case opProbe:
			probes++
		case opAggAll:
			reads++
		default:
			t.Fatalf("write mix produced %v", o)
		}
		if o.Kind != opAggAll && (o.Doc < 64 || o.Doc >= 128) {
			t.Fatalf("write drew document %d outside the unpreloaded pool", o.Doc)
		}
	}
	if writes < 330 || probes == 0 || reads == 0 || reads > 45 {
		t.Errorf("write mix: %d ingests, %d probes, %d reads of 400", writes, probes, reads)
	}
	seen := map[string]int{}
	for client := 0; client < 2; client++ {
		for _, o := range stream(7, mixRead, client) {
			if o.Kind != opProbe {
				continue
			}
			if prev, ok := seen[o.ID]; ok && prev != client {
				t.Fatalf("id %s written by clients %d and %d", o.ID, prev, client)
			}
			seen[o.ID] = client
		}
	}
	if len(seen) == 0 {
		t.Error("read mix produced no writes")
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A layer's self time is its span minus the union of its children, and
// the blocking path under a scatter follows only the leg that ends last.
func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Parent: 0, Layer: "loadgen", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "http", Start: 10 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Layer: "storecluster", Start: 20 * ms, End: 80 * ms},
		// three parallel legs: union [25,60]
		{ID: 4, Parent: 3, Layer: "peer", Start: 25 * ms, End: 40 * ms},
		{ID: 5, Parent: 3, Layer: "peer", Start: 26 * ms, End: 60 * ms},
		{ID: 6, Parent: 3, Layer: "peer", Start: 30 * ms, End: 50 * ms},
		// the slowest leg's handler
		{ID: 7, Parent: 5, Layer: "profstore", Start: 30 * ms, End: 55 * ms, Site: 2, Name: "POST /shard/ingest"},
		// a WAL append nobody claimed, inside span 7 on the same site
		{ID: 8, Parent: 0, Layer: "wal", Start: 35 * ms, End: 45 * ms, Site: 2},
		// and one on another site that nothing contains
		{ID: 9, Parent: 0, Layer: "wal", Start: 35 * ms, End: 45 * ms, Site: 3},
	}
	adoptOrphans(spans,
		func(s *span) bool { return s.Layer == "wal" },
		func(s *span) bool { return s.Layer == "profstore" })
	if spans[7].Parent != 7 || spans[8].Parent != 0 {
		t.Fatalf("adoptOrphans: parents %d and %d, want 7 and 0", spans[7].Parent, spans[8].Parent)
	}
	tree := buildTree(spans)
	for id, want := range map[int32]time.Duration{
		1: 20 * ms, // 100 - [10,90]
		2: 20 * ms, // 80 - [20,80]
		3: 25 * ms, // 60 - union [25,60]
		5: 9 * ms,  // 34 - [30,55]
		7: 15 * ms, // 25 - [35,45]
		8: 10 * ms,
	} {
		if got := tree.self(tree.byID[id]); got != want {
			t.Errorf("self(span %d) = %v, want %v", id, got, want)
		}
	}
	// 20 + 20 + 25 + (leg 5: 9 + 15 + 10) = 99 of the op's 100 ms: the
	// millisecond before leg 5 began is leg 4's alone.
	if got := tree.blockingSelf(tree.byID[1]); got != 99*ms {
		t.Errorf("blockingSelf(root) = %v, want 99ms", got)
	}
	if len(tree.roots) != 2 {
		t.Errorf("%d roots, want 2 (the op and the unclaimed WAL span)", len(tree.roots))
	}
}

// BENCHMARK.json and the tables the command reports from say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []spec `json:"end_to_end"`
		PerLayer   []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: %q differs from the command's %q", i, w.Name, workloadDefs[i].name)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// runSmoke runs the command in-process on tiny inputs and returns its
// exit code and the result line.
func runSmoke(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-smoke", "-seconds", "0.3", "-out", t.TempDir()}, args...)
	code := realMain(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("last line is not a result: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String() + stderr.String()
}

func checkMetrics(t *testing.T, res result, specs []spec, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics reported, %d specified", len(res.Metrics), len(specs))
	}
	for _, sp := range specs {
		v, ok := res.Metrics[sp.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", sp.Name)
		case v.Unit != sp.Unit:
			t.Errorf("metric %s in %q, want %q", sp.Name, v.Unit, sp.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || nonZero && v.Value <= 0:
			t.Errorf("metric %s = %v", sp.Name, v.Value)
		}
	}
}

// Every workload runs end to end on tiny inputs with its checks on; the
// numbers are not looked at beyond being present and positive.
func TestSmoke(t *testing.T) {
	for _, def := range workloadDefs {
		def := def
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			code, res, out := runSmoke(t, "-workload", def.name, "-seed", "3")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, correct=%v, attempted=%d, failed=%d\n%s", code, res.Correct, res.Attempted, res.Failed, out)
			}
			checkMetrics(t, res, endToEnd, true)
		})
	}
}

// The traced run emits every per-layer metric, a span file, and spans
// whose blocking-path self times add up to the client-observed op time.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"sim_calldense", "cluster_read"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			code := realMain([]string{"-smoke", "-seconds", "0.3", "-out", dir, "-workload", name, "-seed", "3", "-trace", "1"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer, false)
			if cov := res.Metrics["loadgen.span_coverage_pct"].Value; cov < 90 || cov > 110 {
				t.Errorf("span self times cover %.1f%% of the client-observed op time, want within 10%%", cov)
			}
			if name == "cluster_read" {
				for _, m := range []string{"storecluster.peer_legs_per_query", "storecluster.router_self_us", "profstore.wal_fsync_us", "profstore.handler_agg_us", "storecluster.fanout_per_ingest"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s = %v on the workload that exercises it", m, res.Metrics[m].Value)
					}
				}
			}
			traces, _ := filepath.Glob(filepath.Join(dir, "trace-*.json"))
			if len(traces) != 1 {
				t.Fatalf("span files: %v", traces)
			}
			data, err := os.ReadFile(traces[0])
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string
					Ph   string
					Dur  float64
				}
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Fatalf("span file: %v, %d events", err, len(doc.TraceEvents))
			}
			leftovers, _ := filepath.Glob(filepath.Join(dir, "tmp-*"))
			if len(leftovers) != 0 {
				t.Errorf("temporary directories left behind: %v", leftovers)
			}
		})
	}
}

// A damaged reference makes the command report correct=false and exit
// non-zero, on a simulator workload and on a store workload.
func TestCorruptReferenceFails(t *testing.T) {
	for _, name := range []string{"sim_ensemble", "store_write", "cluster_read"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			code, res, out := runSmoke(t, "-workload", name, "-seed", "3", "-corrupt")
			if code == 0 || res.Correct {
				t.Fatalf("exit %d, correct=%v with a corrupted reference\n%s", code, res.Correct, out)
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
