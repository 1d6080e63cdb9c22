package ipmgo

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ipmgo/internal/cluster"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmcuda"
	"ipmgo/internal/ipmparse"
	"ipmgo/internal/parallel"
	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
	"ipmgo/internal/workloads"
)

// queueFlush is one flush-heuristic setting under test: a depth trigger,
// a timer trigger, or both (the defaults).
type queueFlush struct {
	name     string
	depth    int
	interval time.Duration
}

// queueFlushSettings spans the heuristic space: immediate hand-off,
// depth-only batching, timer-only batching, and the defaults.
var queueFlushSettings = []queueFlush{
	{"depth1", 1, -1},
	{"depth8-timer-off", 8, -1},
	{"timer-only", 1 << 20, 5 * time.Microsecond},
	{"defaults", 0, 0},
}

// TestQueueDeterminism asserts the acceptance property of the queue
// layer: at every flush setting the run is byte-identical across repeats
// and across -j worker counts. Different settings legitimately produce
// different schedules; identical settings must produce identical bytes.
func TestQueueDeterminism(t *testing.T) {
	for _, q := range queueFlushSettings {
		q := q
		t.Run(q.name, func(t *testing.T) {
			_, banner0, xml0 := runFaultDemo(t, &q, faultPlanRankDeath)
			_, banner1, xml1 := runFaultDemo(t, &q, faultPlanRankDeath)
			if !bytes.Equal(banner0, banner1) {
				t.Error("banner differs between identical queued runs")
			}
			if !bytes.Equal(xml0, xml1) {
				t.Error("XML log differs between identical queued runs")
			}
			run := func(workers int) [][]byte {
				out := make([][]byte, 4)
				if err := parallel.RunAll(4, workers, func(i int) error {
					_, _, xml := runFaultDemo(t, &q, faultPlanRankDeath)
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
		})
	}
}

// TestQueueDeviceLossDrains pins the fail-loud device loss on a queued
// run: every call after the loss fails, the rank drains its work as
// errors, the survivors finish and nothing hangs. The hanging loss is
// TestWatchdogRecoversHungDevice's queued case.
func TestQueueDeviceLossDrains(t *testing.T) {
	const lossPlan = `{
		"seed": 7,
		"faults": [{"type": "cuda", "rank": 2, "at": "60ms", "code": "device-lost"}]
	}`
	q := queueFlush{"defaults", 0, 0}
	res, _, xml0 := runFaultDemo(t, &q, lossPlan)
	if res.Truncated != "" {
		t.Fatalf("queued run truncated: %s", res.Truncated)
	}
	// The workload tolerates CUDA failures: rank 2 survives, but every
	// call after the loss failed loudly and was error-counted in its
	// profile.
	if res.FaultsInjected < 1 {
		t.Fatalf("FaultsInjected = %d, want >= 1", res.FaultsInjected)
	}
	if res.Profile.TotalErrors() == 0 {
		t.Error("no error-counted calls despite a lost device")
	}
	_, _, xml1 := runFaultDemo(t, &q, lossPlan)
	if !bytes.Equal(xml0, xml1) {
		t.Error("device-loss queued run not byte-identical")
	}
}

// TestQueueSubmitStallSurfaces drives one queued run through every
// reporting surface the issue names: the XML log and its HTML rendering,
// the profile store's /agg rollup, the Perfetto trace (per-queue submit
// track and depth counters), and the Prometheus registry.
func TestQueueSubmitStallSurfaces(t *testing.T) {
	rec := telemetry.NewRecorder(1 << 16)
	reg := telemetry.NewRegistry()
	cfg := cluster.Dirac(1, 1)
	cfg.Monitor = true
	cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	cfg.Queue = true
	cfg.Telemetry = rec
	cfg.Metrics = reg
	cfg.Command = "./square"
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		if err := workloads.Square(env, workloads.DefaultSquare()); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Surface 1: the XML report carries the submit attributes, and the
	// profile sums a positive stall (batched launches wait for a trigger).
	if res.Profile.TotalSubmitStall() <= 0 {
		t.Fatal("queued run accumulated no submit stall")
	}
	var xml bytes.Buffer
	if err := ipm.WriteXML(&xml, res.Profile); err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"submit_count=", "submit_stall=", "submit_stall_total="} {
		if !strings.Contains(xml.String(), attr) {
			t.Errorf("XML log missing %s", attr)
		}
	}
	jp, _, err := ipmparse.LoadTolerant(bytes.NewReader(xml.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if jp.TotalSubmitStall() != res.Profile.TotalSubmitStall() {
		t.Errorf("reparsed stall %v != live %v", jp.TotalSubmitStall(), res.Profile.TotalSubmitStall())
	}
	var html bytes.Buffer
	if err := ipmparse.WriteHTML(&html, jp); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"submit stall", "submits"} {
		if !strings.Contains(html.String(), want) {
			t.Errorf("HTML report missing %q", want)
		}
	}

	// Surface 2: the profile store ingests the log and rolls the stall up
	// into /agg.
	store := profstore.New()
	if _, err := store.Ingest(xml.Bytes(), "queued", nil); err != nil {
		t.Fatal(err)
	}
	rep := store.Aggregate(profstore.AggOptions{})
	if rep.SubmitStallSeconds <= 0 {
		t.Error("/agg SubmitStallSeconds is zero after ingesting a queued run")
	}
	var launchSubmits int64
	for _, row := range rep.CallSites {
		launchSubmits += row.Submits
	}
	if launchSubmits <= 0 {
		t.Error("/agg call sites carry no submits")
	}

	// Surface 3: the Perfetto trace has the per-queue submit track and a
	// depth counter series.
	var submits int
	for _, s := range rec.Snapshot() {
		if s.Class == telemetry.ClassQueue {
			submits++
			if s.Track != "ctx0/q0" || s.Name != "submit" {
				t.Errorf("queue span = %+v, want submit on ctx0/q0", s)
			}
		}
	}
	if submits == 0 {
		t.Error("no ClassQueue submit spans recorded")
	}
	pts := rec.CounterSnapshot()
	if len(pts) == 0 {
		t.Fatal("no counter points recorded")
	}
	var depthPts, powerPts int
	for _, p := range pts {
		switch {
		case p.Track == "ctx0/q0" && p.Name == "depth":
			depthPts++
		case p.Track == "gpu0" && p.Name == "power_watts":
			powerPts++
		default:
			t.Errorf("counter point = %+v, want queue depth or device power", p)
		}
	}
	if depthPts == 0 {
		t.Error("no queue-depth counter points recorded")
	}
	if powerPts == 0 {
		t.Error("no device power counter points recorded")
	}

	// Surface 4: the Prometheus registry exposes the queue families.
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`ipm_queue_depth{queue="ctx0/q0"}`,
		`ipm_queue_flushes_total{queue="ctx0/q0"}`,
		"ipm_submit_stall_ns_bucket",
		"ipm_submit_stall_ns_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %s:\n%s", want, firstLines(text, 40))
		}
	}
}
