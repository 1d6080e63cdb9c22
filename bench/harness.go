package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sizes are the fixed inputs of the workloads: the same on every commit,
// so that a faster system does more of the same work, never other work.
type sizes struct {
	amberSteps    int // MD steps of one sim_calldense job (~440 observed calls per step at 4 ranks)
	corpus        int // jobs preloaded into every store fixture
	pool          int // rendered documents (first corpus of them are the preload)
	writeRoundOps int // operations of one store_write round, over all clients
	members       int // cluster_read members
	replicas      int
	probeJobs     int // corpus of the direct-store probes
}

var fullSizes = sizes{amberSteps: 250, corpus: 1024, pool: 2048, writeRoundOps: 6000, members: 4, replicas: 2, probeJobs: 512}

// smokeSizes keep a whole run near a second: enough to execute every
// code path and every check, far too little to measure anything.
var smokeSizes = sizes{amberSteps: 8, corpus: 48, pool: 96, writeRoundOps: 240, members: 4, replicas: 2, probeJobs: 32}

// env is what one run of one workload is given.
type env struct {
	seed     uint64
	seconds  float64
	sz       sizes
	smoke    bool
	corrupt  bool    // damage the reference, to show the check fails
	trace    *tracer // nil = untraced run
	nclients int     // closed-loop clients / ensemble workers: min(nproc, 4)
	tmpRoot  string  // parent of the temp WAL directories
	log      io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// samples accumulates what the measured phases of a run observed.
type samples struct {
	lat       map[string][]float64 // latency class -> ms, one per completed op
	attempted int
	failed    int
	ops       float64       // units of work completed (the workload says what one is)
	busy      time.Duration // host time those units took: ops/busy = ops_per_s
	alloc     uint64        // heap bytes allocated while doing them
	cpu       time.Duration // process CPU time (user+sys) while doing them
	measured  time.Duration // wall time of the measured phases; the rounds loop runs until it reaches -seconds
	info      map[string]float64
}

func newSamples() *samples {
	return &samples{lat: map[string][]float64{}, info: map[string]float64{}}
}

func (s *samples) add(class string, d time.Duration) {
	s.lat[class] = append(s.lat[class], float64(d)/1e6)
}

func (s *samples) merge(o *samples) {
	for k, v := range o.lat {
		s.lat[k] = append(s.lat[k], v...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
}

// usage is a snapshot of the process counters per-op costs are taken from.
type usage struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
	pause time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
		pause: time.Duration(ms.PauseTotalNs),
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// A workload generates its inputs from the seed once, then sets up a
// fresh system for every round.
type workload interface {
	// prepare renders the inputs (documents, configs). It is harness
	// work, not the system's, and is not part of setup_s.
	prepare(e *env) error
	// setUp brings the system to the state the measured phase starts
	// from. Its wall time is one setup_s sample.
	setUp(e *env) (round, error)
}

// A round is one set-up system: measured once, checked, torn down.
type round interface {
	// measure runs the closed loop for box (or, when box is 0, for the
	// workload's fixed operation count) and adds what it saw to s.
	measure(box time.Duration, s *samples) error
	// check compares the system's outputs with the reference. final is
	// set on the run's last round, where the costly parts run.
	check(final bool) error
	close() error
}

const minRounds = 3

type workloadDef struct {
	name      string
	why       string
	primary   string  // latency class of primary_p50_ms / primary_tail_ms
	secondary string  // latency class of secondary_p50_ms
	tail      float64 // percentile primary_tail_ms is read at
	fixedOps  bool    // rounds are op-count boxed, repeated until -seconds is used up
	make      func() workload
}

// runRounds is the whole measurement: rounds of set-up, measured phase,
// check and teardown until the measured phases add up to -seconds.
// Time-boxed workloads split -seconds into rounds equal boxes; fixed-op
// workloads repeat their op count as often as it takes, at least rounds
// times.
func runRounds(e *env, def workloadDef, rounds int) (s *samples, setups []float64, err error) {
	w := def.make()
	t0 := time.Now()
	if err := w.prepare(e); err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}
	prepare := time.Since(t0)
	var checks, closes time.Duration
	defer func() {
		e.logf("harness time outside set-up and measurement: prepare=%.2fs checks=%.2fs teardown=%.2fs", prepare.Seconds(), checks.Seconds(), closes.Seconds())
	}()
	s = newSamples()
	budget := time.Duration(e.seconds * float64(time.Second))
	box := budget / time.Duration(rounds)
	if def.fixedOps {
		box = 0
	}
	for n := 0; n < rounds || s.measured < budget; n++ {
		t0 := time.Now()
		r, err := w.setUp(e)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d set-up: %w", n, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		err = r.measure(box, s)
		t0 = time.Now()
		if err == nil {
			final := n+1 >= rounds && s.measured >= budget
			err = r.check(final)
		}
		t1 := time.Now()
		cerr := r.close()
		if err == nil {
			err = cerr
		}
		checks, closes = checks+t1.Sub(t0), closes+time.Since(t1)
		if err != nil {
			return s, setups, fmt.Errorf("round %d: %w", n, err)
		}
	}
	return s, setups, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value
}

// endToEndMetrics folds the samples into the gated metrics.
func endToEndMetrics(def workloadDef, s *samples, setups []float64) map[string]metricValue {
	prim := sortedCopy(s.lat[def.primary])
	sec := sortedCopy(s.lat[def.secondary])
	vals := map[string]metricValue{
		"setup_s":          {Value: median(setups), n: len(setups)},
		"ops_per_s":        {Value: s.ops / s.busy.Seconds(), n: int(s.ops)},
		"primary_p50_ms":   {Value: percentile(prim, 50), n: len(prim)},
		"primary_tail_ms":  {Value: percentile(prim, def.tail), n: len(prim)},
		"secondary_p50_ms": {Value: percentile(sec, 50), n: len(sec)},
		"alloc_kb_per_op":  {Value: float64(s.alloc) / 1024 / s.ops, n: int(s.ops)},
		"cpu_ms_per_op":    {Value: float64(s.cpu) / 1e6 / s.ops, n: int(s.ops)},
	}
	for _, sp := range endToEnd {
		v := vals[sp.Name]
		v.Unit = sp.Unit
		vals[sp.Name] = v
	}
	return vals
}

// printClasses prints every latency class: the median, the highest
// percentile that still has ten samples beyond it, and the maximum.
func printClasses(w io.Writer, s *samples) {
	classes := make([]string, 0, len(s.lat))
	for c := range s.lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := sortedCopy(s.lat[c])
		tp := tailPercentile(len(xs))
		fmt.Fprintf(w, "  %-14s n=%-7d p50=%.4f ms  p%g=%.4f ms  max=%.4f ms\n",
			c, len(xs), percentile(xs, 50), tp, percentile(xs, tp), xs[len(xs)-1])
	}
}

// mkTempRoot makes the directory the WAL directories of this process
// live in; everything under it is removed on exit.
func mkTempRoot(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "tmp-")
}
