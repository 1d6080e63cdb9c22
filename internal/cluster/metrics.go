package cluster

import (
	"strconv"

	"ipmgo/internal/des"
	"ipmgo/internal/faultsim"
	"ipmgo/internal/gpusim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/telemetry"
)

// runState bundles the per-run bookkeeping shared between the simulation
// loop, the watchdog, the metrics tick, and final result assembly.
type runState struct {
	cfg        *Config
	eng        *des.Engine
	devices    []*gpusim.Device
	monitors   []*ipm.Monitor
	injectors  []*faultsim.Injector
	resilients []*faultsim.Resilient
	lost       []*LostRank
	done       []bool
	// ownProbes counts, per rank, the hash-table probes made by the
	// monitor's own submit-stall observations.
	ownProbes []uint64
}

// collectSamples assembles the live metric snapshot for one job: per-rank
// monitor metrics (call counts/times, hash-table fidelity), per-GPU busy
// time, fault/resilience counters, and the telemetry recorder's own
// health. It must run inside the DES event loop — it reads monitor tables
// without locking.
func collectSamples(st *runState) []telemetry.Sample {
	cfg := st.cfg
	out := make([]telemetry.Sample, 0, 64)
	out = append(out, telemetry.Sample{
		Name:  "ipm_sim_seconds",
		Help:  "Current virtual (simulated) time of the job.",
		Type:  "gauge",
		Value: st.eng.Now().Seconds(),
	})
	for _, m := range st.monitors {
		if m == nil {
			continue
		}
		m := m
		// Guarded: a half-dead rank's table must not take the scrape down
		// with it — a failed sample is counted and skipped.
		m.Guard("metrics", func() {
			out = append(out, ipm.MetricsSamples(m)...)
		})
	}
	for i, d := range st.devices {
		gpu := []telemetry.Label{{Key: "gpu", Value: strconv.Itoa(i)}}
		out = append(out,
			telemetry.Sample{
				Name: "ipm_gpu_busy_seconds",
				Help: "Accumulated kernel execution time per GPU (overlapping kernels count multiply).",
				Type: "gauge", Labels: gpu,
				Value: d.BusyKernelTime().Seconds(),
			},
			telemetry.Sample{
				Name: "ipm_gpu_ops_total",
				Help: "Device operations enqueued per GPU.",
				Type: "counter", Labels: gpu,
				Value: float64(d.Ops()),
			},
		)
	}
	if cfg.Faults != nil {
		var injected, retries, gaveUp float64
		var nLost int
		for r := range st.lost {
			if st.lost[r] != nil {
				nLost++
			}
			if in := st.injectors[r]; in != nil {
				injected += float64(in.Injected())
			}
			if rs := st.resilients[r]; rs != nil {
				retries += float64(rs.Retries())
				gaveUp += float64(rs.GaveUp())
			}
		}
		out = append(out,
			telemetry.Sample{
				Name:  "ipm_ranks_lost",
				Help:  "Ranks that have died (fault plan, watchdog, or truncation).",
				Type:  "gauge",
				Value: float64(nLost),
			},
			telemetry.Sample{
				Name:  "ipm_faults_injected_total",
				Help:  "CUDA errors delivered by the fault plan across all ranks.",
				Type:  "counter",
				Value: injected,
			},
			telemetry.Sample{
				Name:  "ipm_fault_retries_total",
				Help:  "Transient CUDA failures recovered by the retry layer.",
				Type:  "counter",
				Value: retries,
			},
			telemetry.Sample{
				Name:  "ipm_fault_giveups_total",
				Help:  "Transient CUDA failures that exhausted the retry budget.",
				Type:  "counter",
				Value: gaveUp,
			},
		)
	}
	if rec := cfg.Telemetry; rec != nil {
		out = append(out,
			telemetry.Sample{
				Name:  "ipm_telemetry_spans_total",
				Help:  "Spans recorded into the telemetry ring buffer.",
				Type:  "counter",
				Value: float64(rec.Total()),
			},
			telemetry.Sample{
				Name:  "ipm_telemetry_spans_dropped_total",
				Help:  "Spans overwritten before export (ring buffer drop-oldest).",
				Type:  "counter",
				Value: float64(rec.Dropped()),
			},
		)
	}
	// A trailing job label keeps every series unique when several jobs
	// with overlapping signatures publish to one registry (an experiment
	// sweep watched from a single /metrics endpoint).
	job := telemetry.Label{Key: "job", Value: cfg.Command}
	for i := range out {
		out[i].Labels = append(out[i].Labels, job)
	}
	return out
}
