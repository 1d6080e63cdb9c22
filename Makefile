# Build/verify/bench entry points for the ipmgo reproduction.
#
# `make verify` is the tier-1 chain from ROADMAP.md. Allocation counts
# are gated inside `go test` itself: each package pins what its
# benchmarks' ops allocate (the `//go:build !race` alloc_test.go files,
# through internal/alloctest). `make race` covers the concurrent
# simulation paths and the fault-injection scenarios; `make
# results-check` regenerates every paper table and figure and diffs it
# against results/; `make bench` prints the tier-1 benchmark suite as
# plain `go test -bench` text.

GO ?= go
BENCH_PATTERN ?= BenchmarkObserveHot|BenchmarkTableUpdate|BenchmarkMapUpdateManyKeys|BenchmarkAblationHashTable|BenchmarkEnsembleParallel|BenchmarkObserveTelemetry|BenchmarkProfstoreIngest|BenchmarkProfstoreAgg|BenchmarkDESScheduleRun|BenchmarkProcContextSwitch|BenchmarkProcHandoff|BenchmarkProcSleepPastCallback|BenchmarkSpanRecord|BenchmarkQueueSubmit|BenchmarkRuntimeSubmit|BenchmarkClusterIngest|BenchmarkClusterAgg|BenchmarkScanXML|BenchmarkParseXMLTolerant|BenchmarkWriteXML

.PHONY: build vet test race results-check serve serve-load serve-e2e soak soak-short soak-cluster soak-cluster-short fuzz verify bench bench-e2e bench-pair loc profile profile-ensemble experiments trace faults clean

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# -count=1 here, in race and in serve-e2e: a cached "ok" would vouch for
# nothing, least of all the timing-sensitive ./bench smoke runs and the
# race detector, whose findings depend on each run's interleaving.
test:
	$(GO) test -count=1 ./...

# Race-enabled pass over the packages that run simulations concurrently:
# the worker pool itself, the ensemble experiments that fan out on it,
# and the core packages those simulations exercise (including the DES
# event pool the whole simulator schedules through). workloads runs jobs
# side by side over the shared unread broadcast payload, so any write to
# it is a race report. gpusim recycles completed ops behind
# generation-checked handles; its users (cudart, clsim, ipmcuda) are here
# so a stale op pointer read across the parallel ensemble is one too.
# The second pass is the fault-injection machinery: the end-to-end fault
# scenarios (rank death, hung-device watchdog with and without the
# command queue, queued device loss, straggler skew, monitor panic), with
# faultsim and ipmparse beside the packages above.
race:
	$(GO) test -count=1 -race ./internal/des ./internal/parallel ./internal/experiments ./internal/cluster ./internal/ipm ./internal/telemetry ./internal/profstore ./internal/cmdqueue ./internal/storecluster ./internal/workloads ./internal/mpisim ./internal/gpusim ./internal/cudart ./internal/clsim ./internal/ipmcuda ./internal/faultsim ./internal/ipmparse
	$(GO) test -count=1 -race -run 'RankDeath|Watchdog|QueueDeviceLoss|Straggler|MonitorPanic' .

# Regenerate every paper table and figure at full scale (seed 2011) into
# a temporary directory and diff each file against the committed copy in
# results/. The output is deterministic, so any difference is a change
# in what the reproduction reports: regenerate results/ with
# `go run ./cmd/experiments` and commit it along with the change.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments -out "$$tmp" > /dev/null && \
	status=0 && for f in "$$tmp"/*; do diff -u "results/$${f##*/}" "$$f" || status=1; done && \
	if [ $$status -ne 0 ]; then echo "results-check: output differs from results/"; exit 1; fi && \
	echo "results-check: $$(ls "$$tmp" | wc -l) files match results/"

# Start the center-wide profile store (POST /ingest, GET /agg, /jobs,
# /regress, /metrics) with a write-ahead log for restart recovery.
serve:
	mkdir -p results
	$(GO) run ./cmd/ipmserve -addr :8080 -wal results/profiles.wal

# The store harness with one in-process member: concurrent synthetic
# ingest + query traffic, then byte-identical answers to a reference
# store live and after a restart (see ipmserve -selftest).
serve-load:
	$(GO) run ./cmd/ipmserve -selftest -selftest-jobs 200

# End-to-end over real HTTP, race-enabled: ingest the sample profile
# from results/ and pin /agg to a golden, then the store harness with
# one in-process member over 120 jobs (the serve-load run).
serve-e2e:
	$(GO) test -count=1 -race -run ServeE2E .

# Kill/restart durability soak: ipmserve re-execs itself as
# -soak-members child servers (one plain server by default; a cluster
# above one), each over its own WAL, sustains concurrent ingest through
# rotating routers, SIGKILLs a rotating member mid-ingest each cycle,
# and gates on zero lost acknowledged jobs and /agg + /jobs + /regress
# byte-identical from EVERY member to a never-killed single-node
# reference. The `-short` variants are the bounded CI runs wired into
# `make verify` (well under 30s each).
soak:
	$(GO) run ./cmd/ipmserve -soak -soak-jobs 400 -soak-cycles 6 -soak-timeout 120s

soak-short:
	$(GO) run ./cmd/ipmserve -soak -soak-jobs 80 -soak-cycles 3 -soak-timeout 30s

soak-cluster:
	$(GO) run ./cmd/ipmserve -soak -soak-members 3 -soak-replicas 2 -soak-jobs 240 -soak-cycles 4 -soak-timeout 120s

soak-cluster-short:
	$(GO) run ./cmd/ipmserve -soak -soak-members 3 -soak-replicas 2 -soak-jobs 60 -soak-cycles 1 -soak-timeout 30s

# Short native-fuzz pass over both parser entry points (strict and
# tolerant), the XML writer against encoding/xml (FuzzWriteXML), the
# scanner-vs-decoder differential, and the framed-WAL replay path;
# longer sessions:
# go test -fuzz FuzzScanVsParse ./internal/profstore
# -fuzzminimizetime 1x caps the minimization of each new interesting
# input at one run: under the default 60 s budget the minimizer, not the
# fuzzer, spends the short FUZZTIME (the run reports 0 execs/sec).
FUZZTIME ?= 5s
FUZZFLAGS = -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
fuzz:
	$(GO) test $(FUZZFLAGS) -fuzz FuzzParse ./internal/ipmparse
	$(GO) test $(FUZZFLAGS) -fuzz FuzzTolerant ./internal/ipmparse
	$(GO) test $(FUZZFLAGS) -fuzz FuzzWriteXML ./internal/ipm
	$(GO) test $(FUZZFLAGS) -fuzz FuzzScanVsParse ./internal/profstore
	$(GO) test $(FUZZFLAGS) -fuzz FuzzWALReplay ./internal/profstore
	$(GO) test $(FUZZFLAGS) -fuzz FuzzRollupWire ./internal/profstore

verify: build vet test race results-check serve-e2e soak-short soak-cluster-short fuzz

# -p 1 serialises the per-package test binaries: the ensemble benchmarks
# saturate all cores, and letting them run beside the nanosecond-scale
# hot-path benchmarks inflates the latter by double-digit percentages.
# -count runs each benchmark BENCH_COUNT times. Timing claims are settled
# by paired parent/change runs of bench/run.sh, not by this output.
BENCH_COUNT ?= 5
bench:
	$(GO) test -p 1 -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) ./...

# The repo benchmark (BENCHMARK.json, bench/README.md): its own test
# suite (every workload end to end at smoke size, checked against the
# reference store; also part of `make test`), then one full-length run
# of the workload the cluster read path is judged on. The last stdout
# line is the metrics JSON.
bench-e2e:
	$(GO) test ./bench
	bash bench/run.sh --workload cluster_read --seed 1 --seconds 12 --trace 0

# Paired runs of the repo benchmark for a timing claim: REV (archived into
# a temporary tree) against the working tree, on one workload, PAIRS
# pairs alternating which side runs first, seed i for pair i. Prints, for
# each end-to-end metric of BENCHMARK.json, both medians, REV's IQR, the
# working tree's wins and whether it is worse than the metric's bound;
# every run's JSON line is kept in the temporary directory it names.
REV ?= HEAD
WORKLOAD ?= sim_ensemble
PAIRS ?= 10
bench-pair:
	bash scripts/bench-pair.sh '$(REV)' '$(WORKLOAD)' '$(PAIRS)'

# Non-test Go code lines (no blank or comment-only lines) per package,
# then their total: the count the line budgets in ROADMAP.md are stated
# in. For a subset: bash scripts/loc.sh internal/profstore internal/storecluster
loc:
	bash scripts/loc.sh

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

# The same profiles of one quick Fig. 8 ensemble on one worker
# (BenchmarkEnsembleParallel/j1, the Fig8 call the benchmark's
# sim_ensemble workload times): 24 short HPL trials, half of them
# monitored, where per-job set-up and allocation, not per-call cost,
# dominate. 40 ensembles give the
# sampling profiler enough bytes to rank the allocation sites.
profile-ensemble:
	mkdir -p results
	$(GO) test -run '^$$' -bench 'EnsembleParallel/^j1$$' -benchtime 40x \
		-cpuprofile results/ensemble_cpu.pprof -memprofile results/ensemble_allocs.pprof \
		-o results/ensemble.test . > /dev/null
	@echo "profiles: results/ensemble_cpu.pprof results/ensemble_allocs.pprof"
	@echo "read with: go tool pprof -top -sample_index=alloc_space results/ensemble_allocs.pprof"

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
	rm -f results/*.pprof results/ensemble.test
