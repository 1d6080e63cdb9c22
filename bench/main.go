// Command bench is the repository's benchmark: five closed-loop
// workloads over the simulator and the profile store, each reporting
// the gated end-to-end metrics (untraced run) or the per-layer metrics
// and a span file (traced run), after checking that the system's
// outputs are correct. BENCHMARK.json at the repository root names the
// metrics and their bounds; README.md in this directory says why each
// workload and metric exists.
//
//	go run ./bench -workload store_write -seed 1 -seconds 10
//	go run ./bench -workload cluster_read -seed 1 -seconds 10 -trace 1
//	go run ./bench -workload all -repeat 10 -o bench/baseline/run1.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

var workloadDefs = []workloadDef{
	{
		name:    "sim_calldense",
		why:     "Amber twins, ~110k observed calls per job: per-call layers (ipmcuda, ipm, cudart, gpusim, des, mpisim) do nearly all the work, per-job set-up almost none",
		primary: "job_monitored", secondary: "job_bare", tail: 75,
		make: func() workload { return simCalldense{} },
	},
	{
		name:    "sim_ensemble",
		why:     "Fig8 quick ensembles, 24 short HPL trials each: per-job set-up, allocation/GC and the parallel pool dominate, per-call cost is negligible; the mirror of sim_calldense",
		primary: "fig8_pool", secondary: "fig8_serial", tail: 90,
		make: func() workload { return simEnsemble{} },
	},
	{
		name:    "store_write",
		why:     "one WAL-backed node, 95 % POST /ingest of fresh ids, 5 % GET /agg: scan, rollup, WAL append and fsync are the cost, every read misses the memo",
		primary: "ingest", secondary: "visible", tail: 95, fixedOps: true,
		make: func() workload { return &storeWorkload{mix: mixWrite, members: 1} },
	},
	{
		name:    "store_read",
		why:     "one node, fixed corpus, 95 % reads beside 5 % replacing writes: the memo-hit path (p50) and the post-invalidation cold path (p95) with no scatter-gather",
		primary: "agg", secondary: "ingest", tail: 95,
		make: func() workload { return &storeWorkload{mix: mixRead, members: 1} },
	},
	{
		name:    "cluster_read",
		why:     "the store_read stream against 4 storecluster members, 2 replicas: the router's per-query re-fetch, decode and merge dominate; writes pay quorum fan-out",
		primary: "agg", secondary: "visible", tail: 95,
		// A routed /agg takes ~55 ms, so the 5 % writes of a run are a few
		// dozen; the last 15 % of each box publishes only.
		make: func() workload {
			return &storeWorkload{mix: mixRead, members: fullSizes.members, publishShare: 0.15}
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	smoke    bool
	corrupt  bool
	outDir   string
	outFile  string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (or \"all\" with -repeat); one of the names in BENCHMARK.json")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 12, "length of the measured phase (BENCHMARK.json run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: harness wrappers installed, per-layer metrics, span file under -out")
	fs.IntVar(&o.repeat, "repeat", 0, "run the workload N times on seeds seed..seed+N-1 and print each end-to-end metric's median, quartiles and spread against its bound")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs: every code path and check, no meaningful numbers")
	fs.BoolVar(&o.corrupt, "corrupt", false, "damage the reference the outputs are checked against; the run must then fail")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for span files and temporary WAL directories")
	fs.StringVar(&o.outFile, "o", "", "with -repeat: also write the summary as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.repeat > 0 {
		if err := repeatRuns(o, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	def, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q; have:", o.workload)
		for _, d := range workloadDefs {
			fmt.Fprintf(stderr, " %s", d.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	res, err := runOne(o, def, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload once, untraced or traced, and prints the
// human-readable report. The caller prints the result line.
func runOne(o options, def workloadDef, stdout io.Writer) (*result, error) {
	tmpRoot, err := mkTempRoot(o.outDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpRoot)
	// A killed run must not leave WAL directories for the next one.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			os.RemoveAll(tmpRoot)
			os.Exit(130)
		}
	}()
	defer close(sig) // runs after Stop: nothing can send any more
	defer signal.Stop(sig)

	e := &env{
		seed: o.seed, seconds: o.seconds, sz: fullSizes, smoke: o.smoke, corrupt: o.corrupt,
		nclients: min(runtime.NumCPU(), 4), tmpRoot: tmpRoot, log: stdout,
	}
	if o.smoke {
		e.sz = smokeSizes
	}
	e.logf("bench: workload=%s seed=%d seconds=%g trace=%d", def.name, o.seed, o.seconds, o.trace)
	e.logf("  %s", def.why)
	e.logf("  closed loop, %d clients/workers (min(nproc=%d, 4)), one connection per server each; stores in-process behind loopback HTTP, WAL at SyncEvery: 1 with the flush counted but not executed (the traced run times a real one); loopback latencies are this sandbox's", e.nclients, runtime.NumCPU())
	if o.trace != 0 {
		return runTraced(e, o, def)
	}

	s, setups, err := runRounds(e, def, minRounds)
	res := &result{Correct: err == nil, Metrics: map[string]metricValue{}}
	if s == nil {
		return nil, err
	}
	if err != nil {
		e.logf("check FAILED: %v", err)
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	e.logf("rounds=%d measured=%.2fs attempted=%d failed=%d", len(setups), s.measured.Seconds(), s.attempted, s.failed)
	e.logf("latency classes (primary=%s at p50 and p%g, secondary=%s):", def.primary, def.tail, def.secondary)
	printClasses(stdout, s)
	extra := map[string]float64{}
	classMetrics(s, extra)
	for _, name := range []string{"loadgen.sim_calls_per_s", "loadgen.monitor_overhead_ns_per_call", "loadgen.sim_jobs_per_s", "loadgen.alloc_mb_per_job"} {
		if v, ok := extra[name]; ok {
			e.logf("  %-40s %.6g", name, v)
		}
	}
	if len(s.lat[def.primary]) == 0 || len(s.lat[def.secondary]) == 0 || s.ops == 0 {
		return nil, fmt.Errorf("no completed %s or %s operations to report (first error: %v)", def.primary, def.secondary, err)
	}
	res.Metrics = endToEndMetrics(def, s, setups)
	e.logf("end-to-end metrics:")
	for _, sp := range endToEnd {
		v := res.Metrics[sp.Name]
		e.logf("  %-18s %14.6g %-4s (n=%d, %s is better, bound %g%%)", sp.Name, v.Value, sp.Unit, v.n, sp.Better, 100*sp.Bound)
	}
	if err == nil {
		e.logf("check: ok")
	}
	return res, nil
}

// runTraced is the -trace 1 run: the same workload with the wrappers
// installed, the probes, one untraced box for the tracing overhead, and
// the span file.
func runTraced(e *env, o options, def workloadDef) (*result, error) {
	e.trace = newTracer()
	out := map[string]float64{}
	s, _, err := runRounds(e, def, minRounds)
	if s == nil {
		return nil, err
	}
	res := &result{Correct: err == nil, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	if err != nil {
		e.logf("check FAILED: %v", err)
	}
	spans := e.trace.snapshot()
	spanMetrics(spans, s, out)
	classMetrics(s, out)
	u := readUsage()
	if s.ops > 0 {
		out["proc.cpu_s_per_kop"] = s.cpu.Seconds() / s.ops * 1000
	}
	out["proc.gc_count"] = float64(u.gcs)
	out["proc.gc_pause_ms"] = float64(u.pause) / 1e6

	// One untraced box of the same size: the difference in throughput is
	// what the wrappers cost.
	quiet := *e
	quiet.trace = nil
	quiet.seconds = e.seconds / minRounds
	quiet.log = io.Discard
	if qs, _, qerr := runRounds(&quiet, def, 1); qerr != nil {
		return nil, fmt.Errorf("untraced reference box: %w", qerr)
	} else if qs.ops > 0 && s.ops > 0 {
		out["loadgen.trace_overhead_pct"] = 100 * (1 - (s.ops/s.busy.Seconds())/(qs.ops/qs.busy.Seconds()))
	}

	pool, err2 := renderPool(e)
	if err2 != nil {
		return nil, err2
	}
	if err2 := layerProbes(e, pool, out); err2 != nil {
		return nil, fmt.Errorf("probes: %w", err2)
	}
	out["proc.peak_rss_mb"] = peakRSSMB()

	spans = e.trace.snapshot() // now with the probe twins
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", def.name, o.seed))
	if err2 := writeChromeTrace(path, spans); err2 != nil {
		return nil, err2
	}
	e.logf("rounds measured=%.2fs attempted=%d failed=%d spans=%d -> %s", s.measured.Seconds(), s.attempted, s.failed, len(spans), path)
	e.logf("per-layer metrics:")
	for _, sp := range perLayer {
		res.Metrics[sp.Name] = metricValue{Value: out[sp.Name], Unit: sp.Unit}
		e.logf("  %-40s %14.6g %s", sp.Name, out[sp.Name], sp.Unit)
	}
	if err == nil {
		e.logf("check: ok")
	}
	return res, nil
}
