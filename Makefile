GO ?= go

.PHONY: build test race vet ci docscheck perfbench-check bench-smoke bench results benchdiff benchgate benchgate-smoke fuse-bench serve-smoke serve-bench trace-smoke span-bench cluster-smoke cluster-bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine and compile cache are the concurrent pieces; -race over
# them doubles as the determinism gate (parallel vs serial tables).
race:
	$(GO) test -race ./internal/exp/... ./internal/rt/...

vet:
	$(GO) vet ./...

# Pre-PR check: formatting, vet, and the full suite under the race
# detector. The multi-minute golden-table comparisons (fig3/fig4/fig5/
# table2) skip themselves under -race; `make test` still runs them.
# internal/exp alone takes 510-600 s under -race on a 2-vCPU host, at
# Go's 10-minute default test timeout, so the race run gets 20 minutes.
ci:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race -timeout 20m ./...
	sh tools/servesmoke.sh
	sh tools/tracesmoke.sh
	sh tools/clustersmoke.sh
	$(MAKE) fuse-bench
	$(MAKE) span-bench
	$(MAKE) benchgate-smoke
	$(MAKE) benchgate
	$(MAKE) perfbench-check

# Benchmark-harness gate: perfbench/ is its own module (replace repro =>
# ../), so the root `go vet ./...` and `go test ./...` never build it.
# Vetting and testing it here makes a change to the rt, isolation or
# server API that breaks the harness fail CI, not the benchmark run.
perfbench-check:
	cd perfbench && GOWORK=off GOPROXY=off $(GO) vet ./...
	cd perfbench && GOWORK=off GOPROXY=off $(GO) test ./...

# Documentation gate: package comments present, ARCHITECTURE.md linked
# and complete, documented flags/ids exist, documented commands run in
# smoke mode (including the fault-injection flags).
docscheck:
	sh tools/docscheck.sh

# A fast end-to-end pass: one cheap experiment through the bench
# harness and the quick benchtab path.
bench-smoke:
	$(GO) test -run TestMain -bench 'BenchmarkTransitionCost|BenchmarkScalingSlots' -benchtime 1x .
	$(GO) run ./cmd/benchtab transition scaling

# Full paper tables (several minutes).
bench:
	$(GO) test -bench . -benchtime 1x .

# Regenerate BENCH_results.json with before/after timings for the
# SPEC-suite experiments, plus the telemetry-counter sidecar, and
# append a timestamped record to the perf trajectory (BENCH_history.jsonl).
results:
	$(GO) run ./cmd/benchtab -compare -results BENCH_results.json -metrics BENCH_metrics.json -history BENCH_history.jsonl -o /dev/null fig3 fig5 fig4 table2

# Wall-time deltas between the last two `make results` records.
benchdiff:
	sh tools/benchdiff.sh

# Regression gate over the same trajectory: fail if any experiment in
# the latest record is >10% slower than in the previous one. Enforcing
# in `make ci` for same-tier comparisons; new/gone experiments, tier
# mismatches, and a history with fewer than two records all skip (exit
# 0) rather than gate, so only a genuine same-tier slowdown blocks.
benchgate:
	sh tools/benchdiff.sh -gate 10

# Gate self-test on synthetic histories: newline-robust record counting
# (a two-record history without a trailing newline must still gate),
# fail on >threshold regressions, pass in-threshold ones, skip on tier
# mismatches and single-record histories.
benchgate-smoke:
	sh tools/benchgatesmoke.sh

# Fused-tier smoke: on the same engine, fusion on (the fused tier) must
# not be slower than fusion off (the fast tier) on a real kernel (1.2x
# guard band for CI noise).
fuse-bench:
	REPRO_FUSEBENCH=1 $(GO) test -run TestFusedTierNotSlower -count=1 -v .

# Serving-layer smoke: boot faasd on an ephemeral port, burst it with
# faasload, check /healthz, /metrics, and /debug/requests, drain
# cleanly on SIGTERM.
serve-smoke:
	sh tools/servesmoke.sh

# Tracing smoke: boot faasd with -trace, load it, drain, and validate
# that the emitted Chrome-trace JSON parses and contains the serving
# phase spans (queue/exec/transitions on the wall-clock track).
trace-smoke:
	sh tools/tracesmoke.sh

# Span-overhead guard: with spans fully enabled, fused-tier kernel
# invocations must cost no more than 3% extra wall time versus the
# spans-disabled path (best-of-3 each way to damp CI noise).
span-bench:
	REPRO_SPANBENCH=1 $(GO) test -run TestSpanOverheadBounded -count=1 -v .

# Serving-layer benchmark: sweep an open-loop RPS ramp against a live
# faasd and record the throughput/latency trajectory per step in
# SERVE_results.json (RAMP/SECONDS_PER_STEP/KERNEL/OUT env overrides).
serve-bench:
	sh tools/servebench.sh

# Cluster smoke: faasrouter supervising three faasd workers — all
# healthy, a burst through the router with zero routing-layer 5xx,
# autoscale grow decisions visible in cluster.autoscale.* counters,
# keep-warm hits across the cluster, clean SIGTERM drain.
cluster-smoke:
	sh tools/clustersmoke.sh

# Cluster benchmark: the same seeded bursty trace per isolation backend
# through a supervised cluster; records per-backend trace steps and the
# warm-instance density table (colorguard vs multiproc) as the
# "cluster" section of SERVE_results.json (WORKERS/RPS/PEAK/SEED/OUT
# env overrides).
cluster-bench:
	sh tools/clusterbench.sh
