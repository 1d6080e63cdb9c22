package ipmgo

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ipmgo/internal/cluster"
	"ipmgo/internal/faultsim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmcuda"
	"ipmgo/internal/ipmparse"
	"ipmgo/internal/parallel"
	"ipmgo/internal/workloads"
)

// faultPlanRankDeath is the e2e scenario: transient ECC errors on rank 1
// (recovered by the retry layer) and rank 2 of 4 killed mid-run.
const faultPlanRankDeath = `{
	"seed": 11,
	"faults": [
		{"type": "cuda", "rank": 1, "at": "20ms", "code": "ecc", "count": 2},
		{"type": "rank-death", "rank": 2, "at": "60ms"}
	]
}`

// runFaultScenario executes the fault-demo workload on 4 ranks under the
// given plan and returns the result plus the rendered banner and XML log.
func runFaultScenario(t *testing.T, planJSON string) (*cluster.Result, []byte, []byte) {
	return runFaultDemo(t, nil, planJSON)
}

// runFaultDemo is runFaultScenario with the command-queue layer enabled
// at the flush setting q (none when nil) and an optional plan.
func runFaultDemo(t *testing.T, q *queueFlush, planJSON string) (*cluster.Result, []byte, []byte) {
	t.Helper()
	cfg := cluster.Dirac(4, 1)
	// Skip the 1.29s context-init sleep so mid-run fault times land
	// inside the iteration loop, not inside the first cudaMalloc.
	cfg.GPU.ContextInit = 0
	cfg.Monitor = true
	cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	cfg.Command = "./faultdemo"
	if q != nil {
		cfg.Queue = true
		cfg.QueueFlushDepth = q.depth
		cfg.QueueFlushInterval = q.interval
	}
	if planJSON != "" {
		plan, err := faultsim.Parse([]byte(planJSON))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
	}
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		workloads.FaultDemo(env, workloads.DefaultFaultDemo())
	})
	if err != nil {
		t.Fatal(err)
	}
	var banner, xml bytes.Buffer
	if err := ipm.WriteBanner(&banner, res.Profile, ipm.BannerOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := ipm.WriteXML(&xml, res.Profile); err != nil {
		t.Fatal(err)
	}
	return res, banner.Bytes(), xml.Bytes()
}

// TestRankDeathEndToEnd is the acceptance scenario: rank 2 of 4 is killed
// mid-run; the remaining ranks complete, a partial profile with explicit
// degraded-fidelity markers is written, and ipmparse reconstructs it.
func TestRankDeathEndToEnd(t *testing.T) {
	res, banner, xmlLog := runFaultScenario(t, faultPlanRankDeath)

	// The job finished: no truncation, every surviving rank ran to the end.
	if res.Truncated != "" {
		t.Fatalf("run truncated: %s", res.Truncated)
	}
	if len(res.Lost) != 1 || res.Lost[0].Rank != 2 {
		t.Fatalf("Lost = %+v, want rank 2 only", res.Lost)
	}
	if !strings.Contains(res.Lost[0].Reason, "rank death") {
		t.Errorf("loss reason = %q", res.Lost[0].Reason)
	}
	if res.FaultsInjected < 2 {
		t.Errorf("FaultsInjected = %d, want >= 2", res.FaultsInjected)
	}
	if res.Retries < 1 {
		t.Errorf("Retries = %d: transient ECC faults were not retried", res.Retries)
	}

	// The profile holds all four ranks, with rank 2 flagged lost and the
	// survivors carrying full call profiles.
	jp := res.Profile
	if len(jp.Ranks) != 4 {
		t.Fatalf("profile ranks = %d", len(jp.Ranks))
	}
	if !jp.Degraded() {
		t.Error("profile not marked degraded")
	}
	for _, rp := range jp.Ranks {
		if rp.Rank == 2 {
			if !rp.Lost || !strings.Contains(rp.LostReason, "rank death") {
				t.Errorf("rank 2 profile not marked lost: %+v", rp.LostReason)
			}
			continue
		}
		if rp.Lost {
			t.Errorf("surviving rank %d marked lost (%s)", rp.Rank, rp.LostReason)
		}
		if rp.FuncTime("cudaMemcpy(H2D)") == 0 {
			t.Errorf("surviving rank %d has no monitored calls", rp.Rank)
		}
	}
	// Survivors saw the broken communicator: MPI errors are counted in
	// the hash table, and the banner says so.
	if jp.TotalErrors() == 0 {
		t.Error("no error-counted calls despite a dead peer")
	}

	for _, want := range []string{"degraded fidelity", "lost at", "error status"} {
		if !strings.Contains(string(banner), want) {
			t.Errorf("banner missing %q:\n%s", want, banner)
		}
	}
	if !strings.Contains(string(xmlLog), `status="lost"`) {
		t.Error("XML log missing lost-rank marker")
	}

	// ipmparse reconstructs the partial profile from the log.
	jp2, rep, err := ipmparse.LoadTolerant(bytes.NewReader(xmlLog))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || rep.TasksRecovered != 4 {
		t.Errorf("reparse: truncated=%v recovered=%d", rep.Truncated, rep.TasksRecovered)
	}
	lost := jp2.LostRanks()
	if len(lost) != 1 || lost[0].Rank != 2 {
		t.Errorf("reparsed LostRanks = %+v", lost)
	}
	var reBanner bytes.Buffer
	if err := ipmparse.WriteBanner(&reBanner, jp2, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reBanner.String(), "degraded fidelity") {
		t.Error("reconstructed banner lost the degraded-fidelity warning")
	}
}

// TestRankDeathDeterminism asserts the acceptance property: the fault
// scenario is byte-identical across repeated runs and across -j worker
// counts.
func TestRankDeathDeterminism(t *testing.T) {
	_, banner0, xml0 := runFaultScenario(t, faultPlanRankDeath)
	_, banner1, xml1 := runFaultScenario(t, faultPlanRankDeath)
	if !bytes.Equal(banner0, banner1) {
		t.Error("banner differs between identical runs")
	}
	if !bytes.Equal(xml0, xml1) {
		t.Error("XML log differs between identical runs")
	}

	// Across worker counts: the same 4 scenario replicas produce the same
	// bytes whether run sequentially (-j 1) or 4-way parallel (-j 4).
	run := func(workers int) [][]byte {
		out := make([][]byte, 4)
		if err := parallel.RunAll(4, workers, func(i int) error {
			_, _, xml := runFaultScenario(t, faultPlanRankDeath)
			out[i] = xml
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(4)
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Errorf("replica %d differs between -j 1 and -j 4", i)
		}
		if !bytes.Equal(seq[i], xml0) {
			t.Errorf("replica %d differs from the reference run", i)
		}
	}
}

// TestWatchdogRecoversHungDevice checks the hung-stream path, with and
// without batching in the command queue: a hanging device loss silences
// a rank's completions; the virtual-time watchdog turns the stall into
// an explicit rank death of that rank alone, and the job still produces
// a profile. A batched flush hands work to the lost device like an
// unbatched submit does, and the queue's own submit observations must
// not read as the rank making progress.
func TestWatchdogRecoversHungDevice(t *testing.T) {
	const plan = `{
		"seed": 3,
		"watchdog": {"interval": "20ms", "hang_timeout": "150ms"},
		"faults": [
			{"type": "cuda", "rank": 3, "at": "60ms", "code": "device-lost", "call": "cudaStreamSynchronize", "hang": true}
		]
	}`
	for _, c := range []struct {
		name  string
		queue *queueFlush
	}{
		{"direct", nil},
		{"queued", &queueFlush{"defaults", 0, 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, banner, _ := runFaultDemo(t, c.queue, plan)
			if res.Truncated != "" {
				t.Fatalf("watchdog failed to unwedge the run: %s", res.Truncated)
			}
			if len(res.Lost) != 1 || res.Lost[0].Rank != 3 {
				t.Fatalf("Lost = %+v, want rank 3", res.Lost)
			}
			if !strings.Contains(res.Lost[0].Reason, "watchdog") {
				t.Errorf("loss reason = %q, want watchdog kill", res.Lost[0].Reason)
			}
			if !strings.Contains(string(banner), "degraded fidelity") {
				t.Error("banner missing degraded-fidelity warning")
			}
		})
	}
}

// TestStragglerSkewIsDeterministic checks the straggler fault: the skewed
// rank's compute stretches (visible in its wallclock) and the run stays
// byte-identical.
func TestStragglerSkewIsDeterministic(t *testing.T) {
	const plan = `{
		"seed": 5,
		"faults": [{"type": "straggler", "rank": 1, "factor": 3.0}]
	}`
	res, _, xml0 := runFaultScenario(t, plan)
	if len(res.Lost) != 0 {
		t.Fatalf("straggler run lost ranks: %+v", res.Lost)
	}
	// Rank 1's compute is 3x slower; everyone waits for it in the
	// collectives, so the whole job stretches past the fault-free run.
	base := cluster.Dirac(4, 1)
	base.GPU.ContextInit = 0
	base.Monitor = true
	base.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	base.Command = "./faultdemo"
	baseRes, err := cluster.Run(base, func(env *cluster.Env) {
		workloads.FaultDemo(env, workloads.DefaultFaultDemo())
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wallclock <= baseRes.Wallclock+50*time.Millisecond {
		t.Errorf("straggler wallclock %v not visibly slower than baseline %v", res.Wallclock, baseRes.Wallclock)
	}
	_, _, xml1 := runFaultScenario(t, plan)
	if !bytes.Equal(xml0, xml1) {
		t.Error("straggler run not byte-identical")
	}
}

// TestMonitorPanicFault checks the monitor-panic fault: the guard
// recovers it, the run completes, and the profile reports the internal
// error.
func TestMonitorPanicFault(t *testing.T) {
	const plan = `{
		"seed": 9,
		"faults": [{"type": "monitor-panic", "rank": 0, "at": "30ms"}]
	}`
	res, banner, _ := runFaultScenario(t, plan)
	if len(res.Lost) != 0 {
		t.Fatalf("monitor panic killed ranks: %+v", res.Lost)
	}
	if got := res.Profile.MonitorErrors(); got != 1 {
		t.Errorf("MonitorErrors = %d, want 1", got)
	}
	if !strings.Contains(string(banner), "monitor-internal error") {
		t.Errorf("banner missing monitor-internal warning:\n%s", banner)
	}
}
