package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"ipmgo/internal/cluster"
	"ipmgo/internal/experiments"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmcuda"
	"ipmgo/internal/telemetry"
	"ipmgo/internal/workloads"
)

// ---- sim_calldense ----

// amberVariant selects which layers one Amber job runs with; the zero
// value is the bare twin.
type amberVariant struct {
	monitor   bool
	kttIdle   bool // KernelTiming + HostIdle
	queue     bool
	telemetry *telemetry.Recorder
}

var amberMonitored = amberVariant{monitor: true, kttIdle: true}

// runAmber runs one Amber job on Dirac(4,1) and returns the result and
// the host time it took.
func runAmber(seed uint64, steps int, v amberVariant) (*cluster.Result, time.Duration, error) {
	cfg := cluster.Dirac(4, 1)
	cfg.Monitor = v.monitor
	cfg.CUDA = ipmcuda.Options{KernelTiming: v.kttIdle, HostIdle: v.kttIdle}
	cfg.Queue = v.queue
	cfg.Telemetry = v.telemetry
	cfg.Runtime = workloads.AmberRuntimeOptions()
	cfg.Command = "./pmemd.cuda"
	cfg.NoiseSeed = int64(seed)
	cfg.NoiseAmp = 0.03
	t0 := time.Now()
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		if err := workloads.Amber(env, workloads.AmberConfig{Steps: steps}); err != nil {
			panic(err)
		}
	})
	return res, time.Since(t0), err
}

// observedCalls sums Stats.Count over every entry of every rank.
func observedCalls(jp *ipm.JobProfile) int64 {
	var n int64
	for _, r := range jp.Ranks {
		for _, e := range r.Entries {
			n += e.Stats.Count
		}
	}
	return n
}

// reportHash renders the job's XML log and banner, as the ipmrun
// epilogue does, and hashes them with the virtual wallclock.
func reportHash(res *cluster.Result, buf *bytes.Buffer) ([32]byte, error) {
	buf.Reset()
	if err := ipm.WriteXML(buf, res.Profile); err != nil {
		return [32]byte{}, err
	}
	if err := ipm.WriteBanner(buf, res.Profile, ipm.BannerOptions{}); err != nil {
		return [32]byte{}, err
	}
	fmt.Fprintf(buf, "wallclock=%d", res.Wallclock)
	return sha256.Sum256(buf.Bytes()), nil
}

type simCalldense struct{}

func (simCalldense) prepare(*env) error { return nil }

type calldenseRound struct {
	e        *env
	refHash  [32]byte      // monitored job's XML + banner + wallclock
	refBare  time.Duration // bare twin's virtual wallclock
	calls    int64
	mismatch error
	buf      bytes.Buffer
}

// setUp runs one untimed twin pair: it warms the allocator and the code
// paths, and its outputs are the reference every measured job must
// reproduce byte for byte.
func (simCalldense) setUp(e *env) (round, error) {
	r := &calldenseRound{e: e}
	mon, _, err := runAmber(e.seed, e.sz.amberSteps, amberMonitored)
	if err != nil {
		return nil, err
	}
	bare, _, err := runAmber(e.seed, e.sz.amberSteps, amberVariant{})
	if err != nil {
		return nil, err
	}
	if r.refHash, err = reportHash(mon, &r.buf); err != nil {
		return nil, err
	}
	r.refBare = bare.Wallclock
	r.calls = observedCalls(mon.Profile)
	if e.corrupt {
		r.refHash[0] ^= 1
	}
	return r, nil
}

func (r *calldenseRound) measure(box time.Duration, s *samples) error {
	start := time.Now()
	for pair := 0; time.Since(start) < box; pair++ {
		// Twins alternate which goes first, so neither always runs on
		// the heap the other left behind.
		for k := 0; k < 2; k++ {
			s.attempted++
			if (k == 0) == (pair%2 == 0) {
				if err := r.monitored(s, int64(pair)); err != nil {
					s.failed++
					return err
				}
			} else {
				res, d, err := runAmber(r.e.seed, r.e.sz.amberSteps, amberVariant{})
				if err != nil {
					s.failed++
					return err
				}
				s.add("job_bare", d)
				if res.Wallclock != r.refBare && r.mismatch == nil {
					r.mismatch = fmt.Errorf("bare twin wallclock %v, reference %v", res.Wallclock, r.refBare)
				}
			}
		}
	}
	s.measured += time.Since(start)
	s.info["calls_per_job"] = float64(r.calls)
	return nil
}

// monitored runs one monitored job and its epilogue. The job is the op:
// its host time, allocation and CPU time are what the per-op metrics
// divide.
func (r *calldenseRound) monitored(s *samples, op int64) error {
	tr := r.e.trace
	root := tr.begin("loadgen", "op:job", -1, 0, op)
	u0 := readUsage()
	run := tr.begin("cluster", "cluster.Run", -1, root, op)
	res, d, err := runAmber(r.e.seed, r.e.sz.amberSteps, amberMonitored)
	tr.end(run, 0)
	u1 := readUsage()
	if err != nil {
		return err
	}
	s.add("job_monitored", d)
	s.ops++
	s.busy += d
	s.alloc += u1.alloc - u0.alloc
	s.cpu += u1.cpu - u0.cpu

	t0 := time.Now()
	rep := tr.begin("ipm", "WriteXML+WriteBanner", -1, root, op)
	h, err := reportHash(res, &r.buf)
	tr.end(rep, int64(r.buf.Len()))
	tr.end(root, 0)
	if err != nil {
		return err
	}
	s.add("report", time.Since(t0))
	if h != r.refHash && r.mismatch == nil {
		r.mismatch = fmt.Errorf("monitored job's XML, banner or wallclock differs from the reference run")
	}
	return nil
}

func (r *calldenseRound) check(bool) error { return r.mismatch }
func (r *calldenseRound) close() error     { return nil }

// ---- sim_ensemble ----

const fig8Trials = 24 // HPL trials in one quick Fig8 ensemble (12 bare + 12 monitored)

type simEnsemble struct{}

func (simEnsemble) prepare(*env) error { return nil }

type ensembleRound struct {
	e        *env
	ref      [32]byte
	mismatch error
}

func fig8(seed uint64, workers int) (*experiments.Fig8Result, time.Duration, error) {
	t0 := time.Now()
	res, err := experiments.Fig8(experiments.Options{Quick: true, Seed: int64(seed), Workers: workers})
	return res, time.Since(t0), err
}

func fig8Hash(r *experiments.Fig8Result) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprint(r.Bare, r.Monitored, r.DilationPct)))
}

// setUp runs the ensemble once at each worker count: the two must agree
// (Workers: 1 ≡ Workers: nproc), and their hash is the reference.
func (simEnsemble) setUp(e *env) (round, error) {
	r := &ensembleRound{e: e}
	serial, _, err := fig8(e.seed, 1)
	if err != nil {
		return nil, err
	}
	par, _, err := fig8(e.seed, e.nclients)
	if err != nil {
		return nil, err
	}
	r.ref = fig8Hash(serial)
	if fig8Hash(par) != r.ref {
		return nil, fmt.Errorf("Fig8 at Workers:%d differs from Workers:1", e.nclients)
	}
	if e.corrupt {
		r.ref[0] ^= 1
	}
	return r, nil
}

func (r *ensembleRound) measure(box time.Duration, s *samples) error {
	tr := r.e.trace
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < box; i++ {
		// One ensemble in five runs serially, for the scaling ratio.
		workers, class := r.e.nclients, "fig8_pool"
		if i%5 == 1 {
			workers, class = 1, "fig8_serial"
		}
		s.attempted += fig8Trials
		root := tr.begin("loadgen", "op:"+class, -1, 0, int64(i))
		u0 := readUsage()
		run := tr.begin("experiments", "experiments.Fig8", -1, root, int64(i))
		res, d, err := fig8(r.e.seed, workers)
		tr.end(run, 0)
		u1 := readUsage()
		tr.end(root, 0)
		if err != nil {
			s.failed += fig8Trials
			return err
		}
		s.add(class, d)
		if workers != 1 {
			s.ops += fig8Trials
			s.busy += d
			s.alloc += u1.alloc - u0.alloc
			s.cpu += u1.cpu - u0.cpu
		}
		if fig8Hash(res) != r.ref && r.mismatch == nil {
			r.mismatch = fmt.Errorf("Fig8 at Workers:%d differs from the reference ensemble", workers)
		}
	}
	s.measured += time.Since(start)
	return nil
}

func (r *ensembleRound) check(bool) error { return r.mismatch }
func (r *ensembleRound) close() error     { return nil }

// ---- differential twins and set-up probe (traced run) ----

// simProbes measures what each optional layer adds to one Amber job by
// running the job with and without it, and what an empty job costs.
func simProbes(e *env, out map[string]float64) error {
	tr := e.trace
	variants := []struct {
		name string
		v    amberVariant
	}{
		{"monitored", amberMonitored},
		{"bare", amberVariant{}},
		{"ktt_off", amberVariant{monitor: true}},
		{"queue", amberVariant{monitor: true, kttIdle: true, queue: true}},
		{"telemetry", amberVariant{monitor: true, kttIdle: true, telemetry: telemetry.NewRecorder(1 << 16)}},
	}
	host := map[string][]float64{}
	var calls int64
	var virtMon, virtBare time.Duration
	reps := 3
	if e.smoke {
		reps = 1
	}
	root := tr.begin("loadgen", "probe:twins", -1, 0, -1)
	for rep := 0; rep < reps; rep++ {
		for _, va := range variants {
			id := tr.begin("cluster", "cluster.Run "+va.name, -1, root, -1)
			res, d, err := runAmber(e.seed, e.sz.amberSteps, va.v)
			tr.end(id, 0)
			if err != nil {
				return fmt.Errorf("twin %s: %w", va.name, err)
			}
			host[va.name] = append(host[va.name], float64(d))
			switch va.name {
			case "monitored":
				calls, virtMon = observedCalls(res.Profile), res.Wallclock
			case "bare":
				virtBare = res.Wallclock
			}
		}
	}
	tr.end(root, 0)
	mon, bare := median(host["monitored"]), median(host["bare"])
	delta := func(name string, base float64) float64 { return 100 * (median(host[name]) - base) / base }
	out["ipmcuda.monitor_share_pct"] = 100 * (mon - bare) / mon
	out["ipmcuda.ktt_hostidle_delta_pct"] = 100 * (mon - median(host["ktt_off"])) / median(host["ktt_off"])
	out["cmdqueue.queue_delta_pct"] = delta("queue", mon)
	out["telemetry.recorder_delta_pct"] = delta("telemetry", mon)
	out["cluster.bare_ns_per_call"] = bare / float64(calls)
	out["cluster.dilation_pct"] = 100 * float64(virtMon-virtBare) / float64(virtBare)

	// An empty application at 4 nodes: what cluster.Run costs before the
	// first call and after the last.
	n := 20
	cfg := cluster.Dirac(4, 1)
	cfg.Monitor = true
	cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := cluster.Run(cfg, func(*cluster.Env) {}); err != nil {
			return fmt.Errorf("empty job: %w", err)
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	out["cluster.job_setup_ms"] = float64(d) / 1e6 / float64(n)
	out["cluster.job_setup_alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(n)

	// Pool scaling: the same ensemble at nproc workers and at one.
	var pool, serial []float64
	for i := 0; i < reps+1; i++ {
		_, dp, err := fig8(e.seed, e.nclients)
		if err != nil {
			return err
		}
		_, ds, err := fig8(e.seed, 1)
		if err != nil {
			return err
		}
		pool, serial = append(pool, float64(dp)), append(serial, float64(ds))
	}
	out["experiments.fig8_ms"] = median(pool) / 1e6
	out["parallel.speedup"] = median(serial) / median(pool)
	out["parallel.efficiency_pct"] = 100 * out["parallel.speedup"] / float64(e.nclients)
	return nil
}
