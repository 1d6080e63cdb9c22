package ipmgo

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ipmgo/internal/cluster"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmcuda"
	"ipmgo/internal/workloads"
)

// goldenJob is one direct-path golden workload: tune adjusts the job's
// configuration and returns the application.
type goldenJob struct {
	name string
	tune func(cfg *cluster.Config) func(env *cluster.Env)
}

// goldenJobs are `ipmrun -nodes 4`'s configurations of Amber (8 steps,
// the bench smoke size), HPL and PARATEC.
var goldenJobs = []goldenJob{
	{"amber", func(cfg *cluster.Config) func(env *cluster.Env) {
		cfg.Runtime = workloads.AmberRuntimeOptions()
		return func(env *cluster.Env) {
			if err := workloads.Amber(env, workloads.AmberConfig{Steps: 8}); err != nil {
				panic(err)
			}
		}
	}},
	{"hpl", func(*cluster.Config) func(env *cluster.Env) {
		return func(env *cluster.Env) {
			if err := workloads.HPL(env, workloads.DefaultHPL()); err != nil {
				panic(err)
			}
		}
	}},
	{"paratec", func(cfg *cluster.Config) func(env *cluster.Env) {
		cfg.LibCostOnly = true
		return func(env *cluster.Env) {
			if err := workloads.Paratec(env, workloads.DefaultParatec(true)); err != nil {
				panic(err)
			}
		}
	}},
}

// runGoldenJob runs one golden workload on 4 monitored nodes, without
// the command queue or, when queued, on a depth-1 queue with no flush
// timer, and returns the result and its XML log followed by its banner.
func runGoldenJob(t *testing.T, job goldenJob, queued bool) (*cluster.Result, []byte) {
	t.Helper()
	cfg := cluster.Dirac(4, 1)
	cfg.Monitor = true
	cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	cfg.NoiseSeed = 2011
	cfg.NoiseAmp = 0.01
	cfg.Command = "./" + job.name
	if queued {
		cfg.Queue = true
		cfg.QueueFlushDepth = 1
		cfg.QueueFlushInterval = -1
	}
	res, err := cluster.Run(cfg, job.tune(&cfg))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := ipm.WriteXML(&out, res.Profile); err != nil {
		t.Fatal(err)
	}
	if err := ipm.WriteBanner(&out, res.Profile, ipm.BannerOptions{}); err != nil {
		t.Fatal(err)
	}
	return res, out.Bytes()
}

// TestDirectPathGolden pins the unqueued submission path's output: each
// golden workload's XML log plus banner must match testdata/golden byte
// for byte. Regenerate with `go test -run TestDirectPathGolden -update .`
//
// The same workload on a depth-1 queue with no flush timer must then
// match it in every time and energy figure: virtual wallclock, per-rank
// ttot and energy, and every call site's statistics. Only the submit
// counters differ, plus the count-0 cudaEventRecord rows that the
// observed queue adds for the monitor's own event records.
func TestDirectPathGolden(t *testing.T) {
	for _, job := range goldenJobs {
		t.Run(job.name, func(t *testing.T) {
			direct, out := runGoldenJob(t, job, false)
			path := filepath.Join("testdata", "golden", job.name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (go test -run TestDirectPathGolden -update . regenerates it): %v", err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("%s: XML log + banner differ from %s", job.name, path)
			}

			queued, _ := runGoldenJob(t, job, true)
			if queued.Wallclock != direct.Wallclock {
				t.Errorf("wallclock: queued %v, direct %v", queued.Wallclock, direct.Wallclock)
			}
			for i, d := range direct.Profile.Ranks {
				q := queued.Profile.Ranks[i]
				if q.Wallclock != d.Wallclock || q.Energy != d.Energy {
					t.Errorf("rank %d: queued ttot %v energy %d, direct %v %d", i, q.Wallclock, q.Energy, d.Wallclock, d.Energy)
				}
				sites := make(map[ipm.Sig]ipm.Stats, len(d.Entries))
				for _, e := range d.Entries {
					sites[e.Sig] = e.Stats
				}
				for _, e := range q.Entries {
					s := e.Stats
					s.Submits, s.SubmitStall = 0, 0
					ds, ok := sites[e.Sig]
					if !ok && s == (ipm.Stats{}) && e.Sig.Name == "cudaEventRecord" {
						continue // the monitor's own event records, submitted
					}
					if s != ds {
						t.Errorf("rank %d %+v: queued %+v, direct %+v", i, e.Sig, s, ds)
					}
					delete(sites, e.Sig)
				}
				for sig := range sites {
					t.Errorf("rank %d %+v: missing from the queued run", i, sig)
				}
			}
		})
	}
}
