# Local targets mirror .github/workflows/ci.yml step for step, so local
# runs and CI can't drift: CI simply calls these targets.

GO ?= go

# Serving benchmarks guarded against throughput regressions (inst/s).
# The iteration count trades CI time for measurement-window length: 3000
# iterations of the fastest benchmarks finish in ~10ms and mostly measure
# scheduler noise; 20000 keeps every window past ~50ms.
SERVING_BENCH ?= Serve|ServiceThroughput|Replay
SERVING_ITERS ?= 20000x
BENCH_TOLERANCE ?= 0.20

.PHONY: all build vet test race bench fuzz-smoke chaos smoke torture cover bench-serving bench-guard profile-serving ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Smoke-run every benchmark once; catches bit-rot without burning CI time.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Short fuzzing passes: the three-valued expression evaluator (random
# trees + partial environments vs an independent reference evaluator),
# the dfbin wire codec (JSON/binary differential round trip, plus
# truncated/corrupt frames asserting clean errors, never panics), and
# the registry WAL record codec and the eval-capture record codec (decode
# never panics, every failure is classified torn-vs-corrupt, every
# success re-encodes identically).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzEval3$$' -fuzztime=10s ./internal/expr
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryJSONDifferential$$' -fuzztime=5s ./internal/api
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryFrameDecode$$' -fuzztime=5s ./internal/api
	$(GO) test -run='^$$' -fuzz='^FuzzWALRecordDecode$$' -fuzztime=5s ./internal/api
	$(GO) test -run='^$$' -fuzz='^FuzzCaptureRecordDecode$$' -fuzztime=5s ./internal/api

# Deterministic chaos suite: kill/stall/degrade cluster replicas mid-run
# and assert the oracle invariant, work conservation, and launch-exact
# billing under -race. The seed matrix is fixed inside the tests; -count=1
# defeats the test cache so every invocation really re-runs the faults.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/runtime

# End-to-end binary smoke: build the real dfsd and dfserve binaries,
# launch the daemon (HTTP + dfbin listeners), drive it with `dfserve
# -remote` over both wires, SIGTERM it under in-flight binary load, and
# assert the graceful drain flushed everything. TestSmokeRestart then
# cycles the daemon over one -datadir — register, load, SIGTERM,
# relaunch, re-drive without re-registering — plus the SIGKILL and
# torn-WAL-tail crash variants. TestSmokePeerFleet boots a 3-process
# -peers fleet, drives load through one node, rolling-restarts every
# node in turn under SLO assertions, and requires every drain clean.
# TestSmokeCaptureReplay closes the record/replay loop: dfsd -capture
# records 5k mixed-tenant instances over both wires, a SIGTERM seals the
# capture, a fresh daemon comes up, and dfreplay re-issues the capture
# live on both wires demanding zero digest divergence — plus two virtual
# replays that must print bit-identical combined digests.
smoke:
	$(GO) test -count=1 -run 'TestSmokeBinaries|TestSmokeRestart|TestSmokePeerFleet|TestSmokeCaptureReplay' ./cmd/dfsd

# Crash-consistency torture: real dfsd processes with DFSD_FAILPOINTS
# crash failpoints armed at every WAL site (append write/sync, the whole
# snapshot sequence, the log reset, plus torn appends cut at random byte
# offsets), killed mid-registration and restarted, asserting acked ⇒
# recovered bit-identical and in-flight ⇒ exact-content-or-absent. The
# default is the one-cycle-per-site subset CI runs (<60s);
# TORTURE_FULL=1 runs the full randomized sweep (≥50 cycles).
torture:
	$(GO) test -count=1 -run 'TestTortureCrashConsistency' ./cmd/dfsd

# Coverage across every package; cover.out is the CI artifact, the
# function summary line is the human-readable take-away. cmd/dfsd is
# excluded: its only test is the binary e2e smoke (`make smoke` just ran
# it), which execs separate processes and contributes zero coverage.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic $$($(GO) list ./... | grep -v '^repro/cmd/dfsd$$')
	$(GO) tool cover -func=cover.out | tail -1

# Run the serving benchmarks at a fixed iteration count and record the
# results as BENCH_serving.json (throughput, hit rates, batch shape, plus
# the run's GOMAXPROCS and the host's core count). The 64-node pattern
# benchmark runs at -cpu 1,2 instead of the default proc count; benchguard
# records it under -1/-2 names because it appears at two proc counts.
bench-serving:
	$(GO) test -run='^$$' -bench='$(SERVING_BENCH)' -skip='^BenchmarkServePattern64PSE100$$' -benchtime=$(SERVING_ITERS) ./internal/runtime ./internal/server . > bench-serving.out
	$(GO) test -run='^$$' -bench='^BenchmarkServePattern64PSE100$$' -cpu 1,2 -benchtime=$(SERVING_ITERS) ./internal/runtime >> bench-serving.out
	$(GO) run ./cmd/benchguard -in bench-serving.out -out BENCH_serving.json

# Fail when any serving benchmark's inst/s regressed more than
# BENCH_TOLERANCE vs the committed baseline. Refresh the baseline by
# copying BENCH_serving.json over BENCH_baseline.json in the same change
# that justifies the shift.
#
# The default guards machine-independent ratios (each benchmark vs the
# same run's serving ceiling), so `make ci` passes on any hardware. On
# the machine that recorded the baseline, `make bench-guard
# BENCH_NORMALIZE=` switches to absolute throughput, which also catches
# uniform slowdowns the ratio mode cannot see.
#
# The pattern benchmark's -1/-2 entries are left out of the ratio check
# (the normalizer runs at the host's proc count, not theirs). On hosts
# with two or more cores the guard instead fails when that benchmark
# serves fewer inst/s at 2 procs than at 1; absolute mode also compares
# each entry to the baseline at its own proc count.
#
# A flagged measurement is re-taken once before failing: a real
# regression reproduces, a scheduler glitch on a busy runner does not.
BENCH_NORMALIZE ?= BenchmarkServeQuickstartPSE100
BENCH_GUARD_CMD = $(GO) run ./cmd/benchguard -current BENCH_serving.json -baseline BENCH_baseline.json -tolerance $(BENCH_TOLERANCE) $(if $(BENCH_NORMALIZE),-normalize $(BENCH_NORMALIZE))
bench-guard: bench-serving
	$(BENCH_GUARD_CMD) || { \
		echo "bench-guard: regression reported; re-measuring once to rule out runner noise"; \
		$(MAKE) bench-serving && $(BENCH_GUARD_CMD); }

# Capture CPU/heap pprof profiles of the serving hot path (dfserve closed
# loop). CI uploads prof/ with the bench output as workflow artifacts, so
# every perf PR leaves a profile trail for regression archaeology:
#   go tool pprof prof/dfserve-cpu.pprof
PROFILE_N ?= 200000
profile-serving:
	mkdir -p prof
	$(GO) run ./cmd/dfserve -n $(PROFILE_N) -cpuprofile prof/dfserve-cpu.pprof -memprofile prof/dfserve-mem.pprof
	$(GO) run ./cmd/dfserve -n $(PROFILE_N) -schema pattern -cpuprofile prof/dfserve-pattern-cpu.pprof -memprofile prof/dfserve-pattern-mem.pprof

ci: build vet test race bench fuzz-smoke chaos smoke torture cover bench-guard profile-serving
