package ipmgo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ipmgo/internal/cluster"
	"ipmgo/internal/devmodel"
	"ipmgo/internal/faultsim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmcuda"
	"ipmgo/internal/workloads"
)

// endGoldenJob is one run whose end-of-run state is pinned: tune adjusts
// the job's configuration and returns the application.
type endGoldenJob struct {
	name string
	tune func(t *testing.T, cfg *cluster.Config) func(env *cluster.Env)
}

// faultDemoJob configures FaultDemo under the fault plan planJSON, with
// the command queue at its defaults when queued; edit, if non-nil,
// adjusts the parsed plan.
func faultDemoJob(planJSON string, queued bool, edit func(*faultsim.Plan)) func(t *testing.T, cfg *cluster.Config) func(env *cluster.Env) {
	return func(t *testing.T, cfg *cluster.Config) func(env *cluster.Env) {
		plan, err := faultsim.Parse([]byte(planJSON))
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(plan)
		}
		cfg.Faults = plan
		cfg.Command = "./faultdemo"
		cfg.Queue = queued
		return func(env *cluster.Env) {
			workloads.FaultDemo(env, workloads.DefaultFaultDemo())
		}
	}
}

// hangHorizon stops the hang run, watchdog off, 2ms after rank 3's
// device is lost: device work is still outstanding, and the ranks would
// deadlock at 62.36ms.
const hangHorizon = 62 * time.Millisecond

// hangJob configures FaultDemo under faultPlanHang without the context
// initialisation cost, so the fault lands inside the step loop. A
// non-zero horizon switches the watchdog off and stops the run there.
func hangJob(queued bool, horizon time.Duration) func(t *testing.T, cfg *cluster.Config) func(env *cluster.Env) {
	return func(t *testing.T, cfg *cluster.Config) func(env *cluster.Env) {
		cfg.GPU.ContextInit = 0
		var edit func(*faultsim.Plan)
		if horizon > 0 {
			cfg.Horizon = horizon
			edit = func(p *faultsim.Plan) { p.Watchdog.Disable = true }
		}
		return faultDemoJob(faultPlanHang, queued, edit)(t, cfg)
	}
}

// endGoldenJobs are the runs whose end is not a plain drain of the event
// queue: a rank death, a hung device recovered by the watchdog (direct
// and queued), the same hang stopped by a short horizon with the
// watchdog off, and Amber on a backend with two copy engines per
// direction.
var endGoldenJobs = []endGoldenJob{
	{"fault-rankdeath", func(t *testing.T, cfg *cluster.Config) func(env *cluster.Env) {
		plan, err := os.ReadFile(filepath.Join("testdata", "faults", "rankdeath.json"))
		if err != nil {
			t.Fatal(err)
		}
		return faultDemoJob(string(plan), false, nil)(t, cfg)
	}},
	{"fault-hang-direct", hangJob(false, 0)},
	{"fault-hang-queued", hangJob(true, 0)},
	{"fault-hang-horizon", hangJob(false, hangHorizon)},
	{"amber-a100", func(t *testing.T, cfg *cluster.Config) func(env *cluster.Env) {
		dev, ok := devmodel.Lookup("a100")
		if !ok {
			t.Fatal("no a100 backend")
		}
		cfg.Device = dev
		cfg.GPU = dev.GPU
		cfg.Runtime = workloads.AmberRuntimeOptions()
		cfg.Command = "./amber"
		return func(env *cluster.Env) {
			if err := workloads.Amber(env, workloads.AmberConfig{Steps: 8}); err != nil {
				panic(err)
			}
		}
	}},
}

// runEndGoldenJob runs one job on 4 monitored nodes, as `ipmrun -nodes 4`
// configures it, and renders its end state (virtual wallclock, the
// truncation reason and every lost rank) followed by its XML log and
// banner.
func runEndGoldenJob(t *testing.T, job endGoldenJob) []byte {
	t.Helper()
	cfg := cluster.Dirac(4, 1)
	cfg.Monitor = true
	cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	cfg.NoiseSeed = 2011
	cfg.NoiseAmp = 0.01
	app := job.tune(t, &cfg)
	res, err := cluster.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "wallclock: %v\ntruncated: %q\n", res.Wallclock, res.Truncated)
	for _, l := range res.Lost {
		fmt.Fprintf(&out, "lost: rank %d at %v: %s\n", l.Rank, l.At, l.Reason)
	}
	if err := ipm.WriteXML(&out, res.Profile); err != nil {
		t.Fatal(err)
	}
	if err := ipm.WriteBanner(&out, res.Profile, ipm.BannerOptions{}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestEndStateGolden pins how runs end: for each endGoldenJobs run, the
// wallclock, truncation and lost ranks, then the XML log and banner, must
// match testdata/golden byte for byte. The wallclock includes device
// work nobody waited on, and a horizon stop counts the device work still
// outstanding. Regenerate with `go test -run TestEndStateGolden -update .`
func TestEndStateGolden(t *testing.T) {
	for _, job := range endGoldenJobs {
		t.Run(job.name, func(t *testing.T) {
			out := runEndGoldenJob(t, job)
			path := filepath.Join("testdata", "golden", job.name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (go test -run TestEndStateGolden -update . regenerates it): %v", err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("%s: end state, XML log + banner differ from %s", job.name, path)
			}
		})
	}
}
