GO ?= go
FUZZTIME ?= 10s
FUZZ_TARGETS := ./internal/ext4:FuzzExtentTree ./internal/ext4:FuzzRename ./internal/experiments:FuzzReproSpec

.PHONY: all build test race vet bench bench-json bench-check bench-driver parallel-equivalence profile fuzz check trace-smoke repro-smoke topology-smoke frontend-smoke clean

# The benchmarks the committed snapshot and the throughput gate track:
# the Fig. 6/9 harnesses, the headline 4 KiB read (steady-state and
# boot-inclusive), the simulated-IOPS throughput family, and the
# frontend service tier.
GATE_BENCH := Fig6LatBW|Fig9Scaling|Direct4KRead|BootDirect4KRead|SimThroughput|FrontendThroughput

# BENCH_SNAPSHOT is the committed benchmark snapshot: bench-json
# writes it and bench-check gates against it.
BENCH_SNAPSHOT ?= BENCH_PR16.json

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race coverage: the experiments package fans sweep cells and whole
# experiments out to goroutines, some sharing one run environment's
# trace collector, metrics registry and fault plan, and others running
# differently scoped environments side by side.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# bench-json regenerates the committed benchmark snapshot: the
# Fig. 6/9 harnesses, the headline 4 KiB read, the throughput family
# (single-queue, traced, tenant storm, and the four-SSD sharded core
# at 1 and 4 workers), and the frontend service tier, with events/sec,
# wall-ns-per-event, and wall-ns-per-virtual-ns metrics. Set
# BASELINE=<old bench output file> to embed a before/after pair.
bench-json:
	$(GO) test -bench '$(GATE_BENCH)' -benchmem -run '^$$' . \
		| $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) -o $(BENCH_SNAPSHOT)
	@echo wrote $(BENCH_SNAPSHOT)

# bench-check is the performance regression gate, in three parts:
#  1. allocation budgets — a steady-state 4 KiB BypassD read must stay
#     within single-digit allocs/op and the boot-inclusive path within
#     its budget (Test*AllocBudget), with every arbiter's steady-state
#     grant allocation-free (TestArbiterZeroAllocHotPath);
#  2. throughput — the gated benchmarks must stay within 25% of the
#     BENCH_SNAPSHOT ns/op (benchjson -check, which takes
#     the min over -count 3 repetitions; min-of-N plus the tolerance
#     absorbs host noise, so only real regressions fail);
#  3. parallel speedup — the four-SSD sharded storm at -workers 4 must
#     beat -workers 1 by >= 2.5x on events/sec (benchjson -speedup).
#     On hosts with fewer than 4 CPUs the measured ratio is printed
#     but not enforced: one core cannot express parallelism, and the
#     worker-invariance tests still pin correctness there. A missing
#     benchmark fails at any CPU count.
# Opt-in pieces use BENCH_CHECK=1 so ordinary test runs never flake on
# cross-test allocation noise.
bench-check:
	BENCH_CHECK=1 $(GO) test -run 'AllocBudget' -count=1 -v .
	$(GO) test -run TestArbiterZeroAllocHotPath -count=1 -v ./internal/device
	$(GO) test -bench '$(GATE_BENCH)' -benchmem -benchtime 5x -count 3 -run '^$$' . \
		| $(GO) run ./cmd/benchjson -check $(BENCH_SNAPSHOT) \
			-speedup 'SimThroughputSharded/w4:SimThroughputSharded/w1:2.5'

# parallel-equivalence is the tentpole determinism gate under the race
# detector: 20-seed randomized per-shard stream equivalence at workers
# {1,2,4,8} against the coupled scheduler, the armed rerun and
# cross-shard panic checks, the T7-T10 report and full-metrics
# invariance across worker counts, and the faulted two-device tenant
# and fleet runs. Any data race between shard drains or any
# cross-worker divergence fails this target. Entries are pkg:pattern
# pairs, and a pattern that matches no test fails the target too:
# `go test -run` with no match prints "no tests to run" and exits 0,
# so a renamed test would otherwise pass the gate vacuously.
PAR_EQ_TESTS := ./internal/sim:ParallelEquivalence ./internal/sim:ArmedSequential \
	./internal/sim:ArmedCrossShard ./internal/experiments:WorkerInvariant \
	./internal/tenants:FaultedScaleOut ./internal/frontend:FaultedFleet

parallel-equivalence:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	for t in $(PAR_EQ_TESTS); do \
		pkg=$${t%%:*}; pat=$${t##*:}; \
		echo "== $$pkg -run '$$pat'"; \
		$(GO) test -race -count=1 -v -run "$$pat" $$pkg > $$tmp/out.txt || { cat $$tmp/out.txt; exit 1; }; \
		grep -e '--- PASS' $$tmp/out.txt || { echo "parallel-equivalence: -run '$$pat' matched no test in $$pkg"; exit 1; }; \
	done

# profile writes host CPU and allocation profiles of the Fig. 6
# harness (the heaviest sweep) for `go tool pprof`. Separate runs:
# -memprofilerate alongside -cpuprofile skews the CPU numbers.
profile:
	$(GO) test -bench Fig6LatBW -benchtime 10x -run '^$$' -cpuprofile cpu.prof .
	$(GO) test -bench Fig6LatBW -benchtime 10x -run '^$$' -memprofile mem.prof .
	@echo "wrote cpu.prof mem.prof — inspect with: go tool pprof cpu.prof"

# fuzz runs each native fuzz target for FUZZTIME (go test -fuzz takes
# exactly one target per invocation, hence the loop). Targets are
# pkg:FuzzName pairs.
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "== fuzzing $$pkg $$name ($(FUZZTIME))"; \
		$(GO) test $$pkg -run $$name -fuzz "^$$name$$" -fuzztime $(FUZZTIME); \
	done

# trace-smoke runs one experiment and one frontend fleet with tracing
# and metrics on and validates each emitted Chrome trace-event JSON
# with cmd/tracecheck: the file must parse, contain only X/M phases,
# and hold real spans. The fleet run checks that -trace and -metrics
# reach the -frontend path, not just the experiments.
trace-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
		$(GO) build -o $$tmp/bench ./cmd/bypassd-bench; \
		$(GO) build -o $$tmp/tracecheck ./cmd/tracecheck; \
		$$tmp/bench -run T6 -trace $$tmp/trace.json -metrics > $$tmp/out.txt; \
		grep -q '== metrics ==' $$tmp/out.txt; \
		$$tmp/tracecheck -min 100 $$tmp/trace.json; \
		$$tmp/bench -frontend fleet-codel-2.0x -trace $$tmp/fleet.json -metrics > $$tmp/fleet.txt; \
		grep -q 'frontend_requests_total' $$tmp/fleet.txt; \
		$$tmp/tracecheck $$tmp/fleet.json

# repro-smoke round-trips the anomaly-repro tool on the T7 cell the
# arbiter gate pins: the same spec must replay byte-identically at
# -j1 and -j2, and the replayed row must be the wrr victim cell.
repro-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
		$(GO) build -o $$tmp/repro ./cmd/bypassd-repro; \
		spec='T7:hogs=8,victim=bypassd,arbiter=wrr@seed=1'; \
		$$tmp/repro -j 2 "$$spec" > $$tmp/a.txt 2>/dev/null; \
		$$tmp/repro -j 1 "$$spec" > $$tmp/b.txt 2>/dev/null; \
		cmp $$tmp/a.txt $$tmp/b.txt; \
		grep -q 'wrr' $$tmp/a.txt; \
		grep -q 'derived seed: 1' $$tmp/a.txt; \
		echo "repro-smoke ok"

# topology-smoke boots the multi-SSD plane end to end: one quick
# 2-device T9 cell through the CLI's -devices flag. It catches
# topology boot regressions (DevID assignment, per-device mounts,
# shard merge) that unit tests of the pieces can miss.
topology-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
		$(GO) build -o $$tmp/bench ./cmd/bypassd-bench; \
		$$tmp/bench -run T9 -devices 2 > $$tmp/out.txt; \
		grep -q 'weak scaling across SSDs' $$tmp/out.txt; \
		grep -Eq '^2 +4 ' $$tmp/out.txt; \
		echo "topology-smoke ok"

# frontend-smoke drives the service tier end to end through the CLI:
# the quick T10 cells must render byte-identically at -j1 and -j2, and
# a builtin fleet must run under the -frontend flag with its admission
# accounting visible. It catches wiring regressions (flag plumbing,
# fleet resolution, report shape) that the package tests can miss.
frontend-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
		$(GO) build -o $$tmp/bench ./cmd/bypassd-bench; \
		$$tmp/bench -run T10 -j 1 > $$tmp/a.txt; \
		$$tmp/bench -run T10 -j 2 > $$tmp/b.txt; \
		cmp $$tmp/a.txt $$tmp/b.txt; \
		grep -q 'service tier over' $$tmp/a.txt; \
		$$tmp/bench -frontend fleet-token-2.0x > $$tmp/fleet.txt; \
		grep -q 'token admission' $$tmp/fleet.txt; \
		grep -q 'fleet' $$tmp/fleet.txt; \
		echo "frontend-smoke ok"

# bench-driver vets and tests the repository benchmark's driver. It
# is a module of its own (perfbench/go.mod, replace repro => ../), so
# neither `go build ./...` nor `go test ./...` compiles it; this target
# catches a change that breaks the driver's imports.
bench-driver:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# check is the default gate: build, vet, full tests (including the
# statistical tail-claim gates), the race detector over the whole
# tree, the allocation-budget gate, the parallel determinism gate,
# the repro-tool round trip, the 2-device topology smoke, the
# service-tier smoke, the trace smoke, and the benchmark driver.
check: build vet test race bench-check parallel-equivalence repro-smoke topology-smoke frontend-smoke trace-smoke bench-driver

clean:
	$(GO) clean ./...
