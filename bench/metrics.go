package main

// spec names one metric the way BENCHMARK.json does; a test keeps the
// two in step.
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, measured on every workload by the
// untraced run. What an "op", the primary and the secondary operation
// are is fixed per workload (see workloads in main.go and README.md):
//
//	workload       op (ops_per_s, *_per_op)   primary            secondary
//	sim_calldense  one monitored job          monitored job      bare twin job
//	sim_ensemble   one HPL trial              Fig8 at nproc      Fig8 at 1 worker
//	store_write    one HTTP operation         POST /ingest       publish → visible
//	store_read     one HTTP operation         GET /agg           POST /ingest
//	cluster_read   one HTTP operation         GET /agg (routed)  publish → visible
var endToEnd = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"primary_p50_ms", "ms", "lower", 0.20},
	{"primary_tail_ms", "ms", "lower", 0.15},
	{"secondary_p50_ms", "ms", "lower", 0.15},
	{"alloc_kb_per_op", "KB", "lower", 0.15},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
}

// perLayer are the ungated metrics of the traced run. Probe metrics
// (one layer called in a loop with fixed inputs) read the same on every
// workload; span and counter metrics are what this workload's
// operations spent in the layer, and read 0 where the workload bypasses
// it. The loadgen.* group carries the per-class figures the gated
// generic metrics are drawn from, under their own names.
var perLayer = []spec{
	{Name: "ipm.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "ipm.observe_allocs", Unit: "count", Better: "lower"},
	{Name: "ipm.table_update_ns", Unit: "ns", Better: "lower"},
	{Name: "ipm.writexml_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ipm.scan_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ipm.parse_dom_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ipm.scan_bailout_pct", Unit: "%", Better: "lower"},
	{Name: "ipmcuda.monitor_share_pct", Unit: "%", Better: "lower"},
	{Name: "ipmcuda.ktt_hostidle_delta_pct", Unit: "%", Better: "lower"},
	{Name: "cmdqueue.queue_delta_pct", Unit: "%", Better: "lower"},
	{Name: "telemetry.recorder_delta_pct", Unit: "%", Better: "lower"},
	{Name: "telemetry.span_record_ns", Unit: "ns", Better: "lower"},
	{Name: "des.event_ns", Unit: "ns", Better: "lower"},
	{Name: "des.event_allocs", Unit: "count", Better: "lower"},
	{Name: "cluster.bare_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "cluster.job_setup_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.job_setup_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "cluster.dilation_pct", Unit: "%", Better: "lower"},
	{Name: "parallel.speedup", Unit: "x", Better: "higher"},
	{Name: "parallel.efficiency_pct", Unit: "%", Better: "higher"},
	{Name: "experiments.fig8_ms", Unit: "ms", Better: "lower"},
	{Name: "profstore.ingest_direct_us", Unit: "us", Better: "lower"},
	{Name: "profstore.wal_write_us", Unit: "us", Better: "lower"},
	{Name: "profstore.wal_fsync_us", Unit: "us", Better: "lower"},
	{Name: "profstore.wal_fsyncs_per_ingest", Unit: "count", Better: "lower"},
	{Name: "profstore.wal_bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "profstore.handler_ingest_us", Unit: "us", Better: "lower"},
	{Name: "profstore.handler_agg_us", Unit: "us", Better: "lower"},
	{Name: "profstore.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "profstore.agg_warm_ns", Unit: "ns", Better: "lower"},
	{Name: "profstore.agg_cold_us", Unit: "us", Better: "lower"},
	{Name: "profstore.memo_miss_pct", Unit: "%", Better: "lower"},
	{Name: "profstore.wal_replay_jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "profstore.wire_encode_us", Unit: "us", Better: "lower"},
	{Name: "profstore.wire_decode_us", Unit: "us", Better: "lower"},
	{Name: "profstore.wire_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "profstore.poster_retries", Unit: "count", Better: "lower"},
	{Name: "storecluster.router_self_us", Unit: "us", Better: "lower"},
	{Name: "storecluster.peer_leg_us", Unit: "us", Better: "lower"},
	{Name: "storecluster.peer_legs_per_query", Unit: "count", Better: "lower"},
	{Name: "storecluster.peer_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "storecluster.slowest_leg_share_pct", Unit: "%", Better: "lower"},
	{Name: "storecluster.read_amplification", Unit: "x", Better: "lower"},
	{Name: "storecluster.fanout_per_ingest", Unit: "count", Better: "lower"},
	{Name: "storecluster.ring_owners_ns", Unit: "ns", Better: "lower"},
	{Name: "proc.cpu_s_per_kop", Unit: "s", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_count", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sim_calls_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.monitor_overhead_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "loadgen.sim_jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.alloc_mb_per_job", Unit: "MB", Better: "lower"},
	{Name: "loadgen.ingest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.ingest_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.ingest_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.ingest_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.agg_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.agg_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.agg_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.agg_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.visible_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "loadgen.span_coverage_pct", Unit: "%", Better: "higher"},
}
