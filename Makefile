# Developer checks for the ltephy benchmark. `make check` is the
# pre-commit gate: lint (vet + the ltephy-lint invariant suite), full
# build, the race-sensitive scheduler and receiver suites, and the
# steady-state allocation regression test.

GO ?= go

.PHONY: check vet lint build loc test race zeroalloc obs-overhead bench bench-fft bench-e2e bench-turbo bench-compare fuzz-smoke serve-smoke kpi-smoke fleet-smoke benchmark-smoke print-govulncheck-version

check: lint build race zeroalloc obs-overhead fft-sweep kpi-smoke
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static gate: go vet, the repository's own invariant analyzers
# (cmd/ltephy-lint: arenapair, arenaescape, hotpathalloc, blockingcall,
# spawncheck, lockorder, crossarena, determinism, atomiccheck — see
# DESIGN.md "Enforced invariants"), and govulncheck. Locally a missing
# govulncheck is soft-skipped so offline builds stay green; CI exports
# LINT_REQUIRE_GOVULNCHECK=1 (after installing the pinned version below)
# so the vulnerability gate cannot silently vanish there.
GOVULNCHECK_VERSION ?= v1.1.3

lint: vet
	$(GO) run ./cmd/ltephy-lint ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif [ -n "$$LINT_REQUIRE_GOVULNCHECK" ]; then \
		echo "lint: govulncheck required (LINT_REQUIRE_GOVULNCHECK set) but not installed"; \
		exit 1; \
	else \
		echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# CI reads the pin so `go install` and the lint gate agree on one version.
print-govulncheck-version:
	@echo $(GOVULNCHECK_VERSION)

build:
	$(GO) build ./...

# Go line counts as `go list` sees them, every package (benchmark/
# included): non-test files (GoFiles) and test files (TestGoFiles plus
# XTestGoFiles).
loc:
	@$(GO) list -f '{{$$d:=.Dir}}{{range .GoFiles}}{{$$d}}/{{.}}{{"\n"}}{{end}}' ./... | \
		xargs cat | wc -l | xargs printf 'non-test %s\n'
	@$(GO) list -f '{{$$d:=.Dir}}{{range .TestGoFiles}}{{$$d}}/{{.}}{{"\n"}}{{end}}{{range .XTestGoFiles}}{{$$d}}/{{.}}{{"\n"}}{{end}}' ./... | \
		xargs cat | wc -l | xargs printf 'test     %s\n'

test:
	$(GO) test ./...

# The scheduler, receiver, telemetry, front-haul, turbo and fleet suites
# exercise per-worker arena isolation, work stealing, concurrent ring
# snapshots, the serving layer's connection/ack plumbing, the turbo
# window fan-out's shared-state handoff and the coordinator's supervision,
# checkpoint and migration goroutines; -race proves no scratch buffer
# crosses workers and the shared counters are race-free. The pool's
# park/wake stress test then runs 20 times over under the detector: a lost
# wake-up hangs it into its watchdog's goroutine dump.
race:
	$(GO) test -race ./internal/sched/... ./internal/uplink/... ./internal/obs/... ./internal/fronthaul/... ./internal/phy/turbo/... ./internal/fleet/... ./cmd/lte-fleet/...
	$(GO) test -race -run '^TestParkNoLostWakeup$$' -count=20 ./internal/sched/

# Guards the ISSUE 1 invariant: the post-warmup receiver hot path must
# not allocate (see internal/uplink/alloc_bench_test.go) — including with
# telemetry recording at sampling 0, 1 and 64, and at both receiver
# widths — and the pool's task path allocates nothing either: each worker
# reuses its job and payload storage, and the turbo window fan-out is
# built once per worker (internal/sched/alloc_test.go).
zeroalloc:
	$(GO) test -run 'SteadyStateZeroAlloc' -count=1 ./internal/uplink/
	$(GO) test -run '^TestPoolSteadyStateAllocs$$' -count=1 ./internal/sched/

# Telemetry overhead budget (ISSUE 4): a fully instrumented subframe at
# sampling=1 must cost <= 5% over sampling=0. Benchmarks for ~10s.
obs-overhead:
	LTEPHY_OVERHEAD_GATE=1 $(GO) test -run TestTelemetryOverheadGate -count=1 -v ./internal/obs/

# Allocation-regression benchmarks; compare allocs/op against the
# figures recorded in EXPERIMENTS.md.
bench:
	$(GO) test -bench 'BenchmarkSubframeE2E' -benchmem -run '^$$' ./internal/uplink/

# FFT accuracy gate: every LTE length n = 12*nPRB, nPRB in [2, 200],
# against a naive O(n^2) DFT at <= 1e-9 relative error.
.PHONY: fft-sweep
fft-sweep:
	$(GO) test -run TestAccuracySweepAllLTELengths -count=1 ./internal/phy/fft/

# FFT engine microbenchmarks: single transforms at LTE allocation widths —
# smooth, prime-radix and one that takes Bluestein, labelled from the plan,
# with ns/point — plus batched-vs-looped comparisons. EXPERIMENTS.md (PR 13)
# has the per-length table on the reference box.
bench-fft:
	$(GO) test -bench 'BenchmarkForward' -benchmem -run '^$$' ./internal/phy/fft/

# End-to-end subframe baseline: re-records BENCH_e2e_baseline.json
# (SubframeE2E ns/op, bytes/op, allocs/op). Compare a fresh run against
# the committed figures before and after receiver changes.
bench-e2e:
	LTEPHY_BENCH_E2E_OUT=$(CURDIR)/BENCH_e2e_baseline.json \
		$(GO) test -run TestWriteE2EBenchBaseline -count=1 -v ./internal/uplink/

# Line-rate turbo baseline: re-records BENCH_turbo_baseline.json (the
# full-turbo subframe e2e plus the int8 sliding-window kernel at K=512
# and K=6144). CI's bench-turbo job re-records on its own hardware
# before gating.
bench-turbo:
	LTEPHY_BENCH_TURBO_OUT=$(CURDIR)/BENCH_turbo_baseline.json \
		$(GO) test -run TestWriteTurboBenchBaseline -count=1 -v ./internal/uplink/

# Benchmark regression gate: run the receiver and turbo-kernel benchmarks
# and fail on any >10% ns/op regression (or any allocs/op growth) against
# the committed baselines. CI's bench jobs re-record the baselines on
# their own hardware first, so the comparison is always same-machine.
bench-compare:
	@( $(GO) test -run '^$$' -bench 'BenchmarkSubframeE2E|BenchmarkChanEstStage|BenchmarkDataStage' \
		-benchmem ./internal/uplink/ && \
	   $(GO) test -run '^$$' -bench 'BenchmarkDecodeQuant' -benchmem ./internal/phy/turbo/ ) | \
		$(GO) run ./cmd/bench-compare \
			-baseline $(CURDIR)/BENCH_e2e_baseline.json,$(CURDIR)/BENCH_turbo_baseline.json

# Short fuzz pass over every fuzz target (~10s each): CRC append/check,
# turbo segmentation and rate-matching round trips, the int8 decoder
# against the float64 oracle kept in its tests, the FFT forward/inverse
# round trip at both widths, the split-plane pack/unpack at both widths,
# the front-haul frame decoder against adversarial wire bytes, and the
# LTCK cell-checkpoint decoder (accepted snapshots re-encode exactly).
# `go test -fuzz` takes one target per run, hence the separate
# invocations.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAppendCheck$$' -fuzztime $(FUZZTIME) ./internal/phy/crc/
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentationRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/phy/turbo/
	$(GO) test -run '^$$' -fuzz '^FuzzRateMatchRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/phy/turbo/
	$(GO) test -run '^$$' -fuzz '^FuzzTurboQuantized$$' -fuzztime $(FUZZTIME) ./internal/phy/turbo/
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/phy/fft/
	$(GO) test -run '^$$' -fuzz '^FuzzLanePackUnpack$$' -fuzztime $(FUZZTIME) ./internal/phy/lane/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/fronthaul/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/fronthaul/

# Serving-layer smoke: lte-enb on a Unix socket, 2000 subframes per cell
# at 2x real time through the wire generator (lte-bench -loopback),
# asserting zero wire corruption and every subframe served. CI's
# serve-smoke job runs this.
serve-smoke:
	@rm -rf bin/smoke && mkdir -p bin/smoke
	$(GO) build -o bin/smoke/ ./cmd/lte-enb ./cmd/lte-bench
	@set -e; \
	sock=bin/smoke/enb.sock; \
	./bin/smoke/lte-enb -listen $$sock -network unix -cells 4 -pools 2 -deadline 1m & \
	enb=$$!; \
	trap 'kill $$enb 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do [ -S $$sock ] && break; sleep 0.1; done; \
	[ -S $$sock ] || { echo "serve-smoke: server did not come up"; exit 1; }; \
	./bin/smoke/lte-bench -loopback $$sock -network unix -cells 4 -subframes 2000 \
		-speedup 2 -delta 1ms -maxprb 2 | tee bin/smoke/out.txt; \
	kill $$enb; wait $$enb 2>/dev/null || true; \
	grep -q 'corrupt=0' bin/smoke/out.txt || { echo "serve-smoke: wire corruption"; exit 1; }; \
	grep -q 'done=8000' bin/smoke/out.txt || { echo "serve-smoke: not all subframes served"; exit 1; }; \
	echo "serve-smoke: OK"

# Fleet smoke (ISSUE 10): two runs of the fleet harness, both gated on
# exactly-once delivery (0 lost subframes, KPI rollup == users offered)
# and on the measured shed fraction landing within 10% (relative) of the
# admission estimator's credited-budget prediction.
#   1. Process fleet: 2 real lte-enb processes x 4 cells at 2x load,
#      with one forced live migration mid-run and one forced worker
#      crash (checkpoint round + SIGKILL, supervisor restores from
#      snapshots on the relaunch).
#   2. Scale: 16 cells on 2 in-process workers through a full diurnal
#      ramp (-day = run length).
# JSON summaries land under results/ (CI uploads them as artifacts).
fleet-smoke:
	@rm -rf bin/fleet && mkdir -p bin/fleet results
	$(GO) build -o bin/fleet/ ./cmd/lte-enb ./cmd/lte-bench
	./bin/fleet/lte-bench -fleet 2 -cells 4 -subframes 200 -workers 2 \
		-load 2 -dtx 0.1 -maxprb 2 -seed 7 -migrate-at 60 -crash-at 140 \
		-enb-bin bin/fleet/lte-enb -fleet-dir bin/fleet \
		-assert-exactly-once -assert-shed-within 0.1 \
		-json results/fleet_smoke.json | tee bin/fleet/smoke.txt
	@grep -q 'migrated cell 2' bin/fleet/smoke.txt || { echo "fleet-smoke: migration did not run"; exit 1; }
	@grep -q 'worker 0 back' bin/fleet/smoke.txt || { echo "fleet-smoke: crashed worker was not restored"; exit 1; }
	./bin/fleet/lte-bench -fleet 2 -cells 16 -subframes 100 -workers 2 \
		-load 2 -day 100 -dtx 0.1 -maxprb 2 -seed 11 \
		-assert-exactly-once -assert-shed-within 0.1 \
		-json results/fleet_scale.json
	@echo "fleet-smoke: OK"

# Benchmark smoke: the repository benchmark (BENCHMARK.json) for 3 s on its
# reference workload, untraced then traced, on frontend_wide untraced — the
# workload with a prime-radix transform length (22 PRB, n = 264) — on
# ref_turbo_op untraced, the only one that decodes: int8 window kernel,
# rate-dematch and CRC gate, half-iteration counts included — and on
# serve_wire untraced, the fronthaul server whose single worker parks
# between subframes, so a wake-protocol hang fails here. Every pass is
# compared bit for bit with a golden serial pass, so a receiver change that
# breaks it fails here rather than in the pipeline's benchmark run; the
# run's last line is its JSON verdict.
benchmark-smoke:
	@set -e; mkdir -p .bench_build; \
	for run in "ref_passthrough 0" "ref_passthrough 1" "frontend_wide 0" "ref_turbo_op 0" "serve_wire 0"; do \
		set -- $$run; \
		bash benchmark/run.sh --workload $$1 --seconds 3 --trace $$2 | tee .bench_build/smoke.txt; \
		tail -n 1 .bench_build/smoke.txt | grep -q '"correct":true' || \
			{ echo "benchmark-smoke: $$1 --trace $$2 did not end with \"correct\":true"; exit 1; }; \
	done
	@echo "benchmark-smoke: OK"

# KPI measurement smoke (ISSUE 9): a 3-point BLER-vs-SNR campaign through
# the full-turbo receive path, asserting the physics — BLER monotone
# non-increasing in SNR and 0% at the top of the grid — and leaving the
# curve artifacts under results/. Runs in well under a second.
kpi-smoke:
	$(GO) run ./cmd/lte-bench -bler-sweep -turbo full -rate 0.5 \
		-sweep-subframes 8 -maxprb 4 -snr-grid "-4,-1,6" \
		-assert-monotone -out results
	@echo "kpi-smoke: OK"
