# Build/verify/bench entry points for the ipmgo reproduction.
#
# `make verify` is the tier-1 chain from ROADMAP.md; `make race` covers
# the concurrent simulation paths introduced with the parallel ensemble
# driver; `make bench` records the tier-1 benchmark suite (with
# allocation counts) into a JSON snapshot for cross-PR comparison.

GO ?= go
BENCH_OUT ?= BENCH_pr16.json
BENCH_BASE ?= BENCH_pr15.json
BENCH_PATTERN ?= BenchmarkObserveHot|BenchmarkTableUpdate|BenchmarkMapUpdateManyKeys|BenchmarkAblationHashTable|BenchmarkEnsembleParallel|BenchmarkObserveTelemetry|BenchmarkProfstoreIngest|BenchmarkProfstoreAgg|BenchmarkDESScheduleRun|BenchmarkProcContextSwitch|BenchmarkProcHandoff|BenchmarkProcSleepPastCallback|BenchmarkSpanRecord|BenchmarkQueueSubmit|BenchmarkClusterIngest|BenchmarkClusterAgg

.PHONY: build vet test race race-faults serve serve-load serve-e2e soak soak-short soak-cluster soak-cluster-short fuzz verify bench bench-check bench-smoke bench-e2e profile experiments trace faults clean

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race-enabled pass over the packages that run simulations concurrently:
# the worker pool itself, the ensemble experiments that fan out on it,
# and the core packages those simulations exercise (including the DES
# event pool the whole simulator schedules through). workloads runs jobs
# side by side over the shared unread broadcast payload, so any write to
# it is a race report. gpusim recycles completed ops behind
# generation-checked handles; its users (cudart, clsim, ipmcuda) are here
# so a stale op pointer read across the parallel ensemble is one too.
race:
	$(GO) test -race ./internal/des ./internal/parallel ./internal/experiments ./internal/cluster ./internal/ipm ./internal/telemetry ./internal/profstore ./internal/cmdqueue ./internal/storecluster ./internal/workloads ./internal/mpisim ./internal/gpusim ./internal/cudart ./internal/clsim ./internal/ipmcuda

# Race-enabled pass over the fault-injection machinery: the end-to-end
# fault scenarios (rank death, hung-device watchdog, straggler skew,
# monitor panic) plus the packages that implement them.
race-faults:
	$(GO) test -race -run 'RankDeath|Watchdog|Straggler|MonitorPanic' .
	$(GO) test -race ./internal/faultsim ./internal/mpisim ./internal/gpusim ./internal/ipmparse

# Start the center-wide profile store (POST /ingest, GET /agg, /jobs,
# /regress, /metrics) with a write-ahead log for restart recovery.
serve:
	mkdir -p results
	$(GO) run ./cmd/ipmserve -addr :8080 -wal results/profiles.wal

# Hammer an in-process ipmserve with concurrent synthetic ingest+query
# traffic and verify deterministic output (see ipmserve -selftest).
serve-load:
	$(GO) run ./cmd/ipmserve -selftest -selftest-jobs 200

# End-to-end over real HTTP, race-enabled: ingest the sample profile
# from results/ and pin /agg to a golden, then the 120-job concurrent
# load/recovery scenario.
serve-e2e:
	$(GO) test -race -run ServeE2E .

# Kill/restart durability soak: ipmserve re-execs itself as a child
# server over a WAL, sustains concurrent ingest, SIGKILLs the child
# mid-ingest N times, and gates on byte-identical /agg + /regress vs a
# never-killed reference and zero lost acknowledged jobs. `soak-short`
# is the bounded CI variant wired into `make verify`.
soak:
	$(GO) run ./cmd/ipmserve -soak -soak-jobs 400 -soak-cycles 6 -soak-timeout 120s

soak-short:
	$(GO) run ./cmd/ipmserve -soak -soak-jobs 80 -soak-cycles 3 -soak-timeout 30s

# Cluster kill/restart soak: N ipmserve members in cluster mode, each
# over its own WAL, with rotating members SIGKILLed mid-ingest while
# workers retry through the surviving routers. Gates on zero lost
# acknowledged jobs and /agg + /jobs + /regress byte-identical from
# EVERY member to a never-killed single-node reference.
# `soak-cluster-short` is the bounded CI variant wired into `make
# verify` (3 members, one kill cycle, well under 30s).
soak-cluster:
	$(GO) run ./cmd/ipmserve -soak-cluster -soak-members 3 -soak-replicas 2 -soak-jobs 240 -soak-cycles 4 -soak-timeout 120s

soak-cluster-short:
	$(GO) run ./cmd/ipmserve -soak-cluster -soak-members 3 -soak-replicas 2 -soak-jobs 60 -soak-cycles 1 -soak-timeout 30s

# Short native-fuzz pass over both parser entry points (strict and
# tolerant), the streaming-scanner differential, and the framed-WAL
# replay path; longer sessions:
# go test -fuzz FuzzScanVsParse ./internal/profstore
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/ipmparse
	$(GO) test -run '^$$' -fuzz FuzzTolerant -fuzztime $(FUZZTIME) ./internal/ipmparse
	$(GO) test -run '^$$' -fuzz FuzzScanVsParse -fuzztime $(FUZZTIME) ./internal/profstore
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/profstore
	$(GO) test -run '^$$' -fuzz FuzzRollupWire -fuzztime $(FUZZTIME) ./internal/profstore

verify: build vet test race race-faults serve-e2e soak-short soak-cluster-short fuzz bench-smoke bench-check

# -p 1 serialises the per-package test binaries: the ensemble benchmarks
# saturate all cores, and letting them run beside the nanosecond-scale
# hot-path benchmarks inflates the latter by double-digit percentages.
# -count runs each benchmark BENCH_COUNT times; benchjson keeps the
# fastest repetition (the noise floor) for the snapshot.
BENCH_COUNT ?= 5
bench:
	$(GO) test -p 1 -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) ./... | $(GO) run ./cmd/benchjson -o $(BENCH_OUT) -compare $(BENCH_BASE)

# Like bench, but a CI gate: fail (exit 3) if any benchmark regressed
# more than BENCH_THRESHOLD percent in allocs/op or B/op — or started
# allocating at all — against the committed PR-16 snapshot. Those counts
# are a property of the code; the ns/op delta is printed beside them for
# information only, because against a committed snapshot it measures the
# box (timing claims are settled by paired parent/change runs of
# bench/run.sh). A benchmark whose own repetitions disagree on the
# counts (BenchmarkProfstoreAggUnderIngest races a writer: 1-8 allocs/op)
# is marked and not gated.
# Writes its measurements to results/ so it never clobbers the committed
# baseline.
BENCH_THRESHOLD ?= 30
BENCH_CHECK_BASE ?= BENCH_pr16.json
bench-check:
	mkdir -p results
	$(GO) test -p 1 -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) ./... | $(GO) run ./cmd/benchjson -o results/bench_check.json -compare $(BENCH_CHECK_BASE) -threshold $(BENCH_THRESHOLD)

# The repo benchmark (BENCHMARK.json, bench/README.md). bench-smoke is
# its own test suite: every workload end to end at smoke size, checked
# against the reference store (seconds; part of `make verify`).
# bench-e2e adds one full-length run of the workload the cluster read
# path is judged on; the last stdout line is the metrics JSON.
bench-smoke:
	$(GO) test ./bench

bench-e2e: bench-smoke
	bash bench/run.sh --workload cluster_read --seed 1 --seconds 12 --trace 0

# Capture CPU + allocation profiles of the call-dense bundled workload
# (a monitored Amber run: ~10^5 wrapped CUDA/MPI calls per rank, the job
# the benchmark's sim_calldense workload times) for pprof analysis; see
# EXPERIMENTS.md "Profiling the simulator" for the reading recipe.
# PROFILE_WORKLOAD=hpl profiles the communication-bound one instead.
PROFILE_WORKLOAD ?= amber
profile:
	mkdir -p results
	$(GO) run ./cmd/ipmrun -cpuprofile results/cpu.pprof -memprofile results/allocs.pprof \
		-nodes 4 $(PROFILE_WORKLOAD) > /dev/null
	@echo "profiles: results/cpu.pprof results/allocs.pprof"
	@echo "read with: go tool pprof -top results/cpu.pprof"

experiments:
	$(GO) run ./cmd/experiments -quick

# Produce a sample Perfetto-loadable timeline trace from the square
# workload (open results/square_trace.json in https://ui.perfetto.dev).
trace:
	mkdir -p results
	$(GO) run ./cmd/ipmrun -trace results/square_trace.json square

# Produce a sample degraded profile: rank 2 of 4 dies mid-run, the
# survivors finish, and the banner/XML carry the degraded-fidelity
# markers (see EXPERIMENTS.md "Rank-death run").
faults:
	mkdir -p results
	$(GO) run ./cmd/ipmrun -nodes 4 -faults testdata/faults/rankdeath.json \
		-xml results/faultdemo_rankdeath.xml faultdemo \
		> results/faultdemo_rankdeath.banner.txt
	$(GO) run ./cmd/ipmparse results/faultdemo_rankdeath.xml > /dev/null

clean:
	rm -f results/bench_check.json results/cpu.pprof results/allocs.pprof
