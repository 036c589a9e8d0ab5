# Development targets for the dynamicrumor module. `make check` is the tier-1
# gate that CI runs on every push (see .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test test-short test-race vet fmt-check check-rumorbench bench bench-json bench-smoke fuzz test-equivalence smoke-service smoke-cluster smoke-chaos smoke-sweep serve check clean

# The anchor benchmarks tracked across PRs (see BENCH_*.json and
# EXPERIMENTS.md): the Monte-Carlo engine fan-out (batch + streaming,
# including both async stream disciplines via BenchmarkMonteCarloStream),
# the two hot-path anchors of the allocation-free rebuild work, and the
# frontier-based flooding scan.
BENCH_ANCHORS := BenchmarkMonteCarlo|BenchmarkGNRhoConstructionN2048|BenchmarkAsyncDynamicStarN5000|BenchmarkRunReduce1e5Reps|BenchmarkFloodingLargeN

# The service-layer anchor pair: one native 24-cell sweep against the same
# grid as 24 separate submissions (internal/service/sweep_bench_test.go) —
# the committed evidence for the sweep path's amortization.
SERVICE_BENCH_ANCHORS := BenchmarkSweepNative24Cells|BenchmarkSweepSeparate24Cells

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# test-race also covers the benchmark module: it drives the service
# in-process, and the root ./... pattern never reaches it.
test-race:
	$(GO) test -race -short ./...
	cd rumorbench && $(GO) test -race -short .

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

bench:
	$(GO) test -run NONE -bench 'BenchmarkMonteCarlo' -benchmem .
	$(GO) test -run NONE -bench 'Async|Sync|Flooding|Conductance|GNRho' -benchmem .
	$(GO) test -run NONE -bench '$(SERVICE_BENCH_ANCHORS)' -benchmem ./internal/service

# bench-json runs the anchor benchmarks and records them as a dated JSON
# data point, so the performance trajectory of the repo is a committed,
# machine-readable series (BENCH_<date>.json). The delta_vs block inside the
# new file compares it against the most recent committed point. A same-day
# rerun gets a numeric suffix instead of overwriting history.
# The service pair runs first: it is wall-clock heavy and, on small boxes,
# measurably slower when scheduled right after the long engine bench run.
bench-json:
	$(GO) test -run NONE -bench '$(SERVICE_BENCH_ANCHORS)' -benchmem -benchtime=3x ./internal/service > bench.out.tmp
	$(GO) test -run NONE -bench '$(BENCH_ANCHORS)' -benchmem -benchtime=2s . >> bench.out.tmp
	@cat bench.out.tmp
	@out=BENCH_$$(date -u +%Y-%m-%d).json; i=2; \
	while [ -e "$$out" ]; do out=BENCH_$$(date -u +%Y-%m-%d).$$i.json; i=$$((i+1)); done; \
	sh scripts/bench_to_json.sh < bench.out.tmp > bench.json.tmp; \
	mv bench.json.tmp "$$out"; \
	rm -f bench.out.tmp; \
	echo "wrote $$out"

# bench-smoke is the CI guard: one iteration of every anchor, so the
# benchmarks cannot rot even when nobody is looking at their numbers.
bench-smoke:
	$(GO) test -run NONE -bench '$(BENCH_ANCHORS)' -benchtime 1x -benchmem .
	$(GO) test -run NONE -bench '$(SERVICE_BENCH_ANCHORS)' -benchtime 1x -benchmem ./internal/service

# fuzz is the tier-2 fuzzing gate: a short run of the Builder.BuildInto
# target against its map-based reference (internal/graph/fuzz_test.go). Its
# committed seed corpus already runs on every plain `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBuilderBuildInto -fuzztime 20s ./internal/graph

# test-equivalence is the tier-2 statistical gate: the v1-vs-v2 stream
# equivalence suite (internal/statcheck, with the sim-level cross-validation)
# under the race detector, plus the workers-speedup smoke. Slower and
# wall-clock sensitive, so CI runs it as its own job instead of inside
# `make check`; the speedup smoke self-skips below 4 CPUs.
test-equivalence:
	$(GO) test -race -run 'TestStreamV2EquivalenceSuite|TestCrossValidationV1VsV2' -count=1 -v ./internal/statcheck ./internal/sim
	$(GO) test -run TestWorkersSpeedupSmoke -count=1 -v .

# serve starts the rumord simulation service on :8080 (see README "Running
# the service" for the API).
serve:
	$(GO) run ./cmd/rumord

# smoke-service is the CI end-to-end guard for rumord: start the daemon,
# submit a scenario sweep through examples/client, poll to completion, diff
# the summaries against scripts/testdata/service_smoke_summary.json, and
# require a resubmission to be a byte-identical cache hit.
smoke-service:
	sh scripts/service_smoke.sh

# smoke-cluster is the tier-2 end-to-end guard for the distributed rumord:
# coordinator + two workers run a 10⁴-rep ensemble (one worker killed
# mid-run) and the summary must be byte-identical to a single-node rumord's.
smoke-cluster:
	sh scripts/cluster_smoke.sh

# smoke-chaos is the tier-2 crash-recovery guard: a durable coordinator
# (-state-dir, -cache-dir) is SIGKILLed mid-run under an active fault plan
# (-chaos) and restarted; the recovered run's summary must be byte-identical
# to a single-node rumord's.
smoke-chaos:
	sh scripts/chaos_smoke.sh

# smoke-sweep is the CI end-to-end guard for native sweeps: one daemon runs
# a grid through POST /v1/sweeps, a second fresh daemon runs every cell as a
# standalone POST /v1/runs, and the aggregate summaries must be
# byte-identical (see scripts/sweep_smoke.sh).
smoke-sweep:
	sh scripts/sweep_smoke.sh

# check-rumorbench vets and tests the benchmark module. It is its own Go
# module, so the root `go build ./...` never compiles it, yet it imports
# internal/*: without this step a change there could break the benchmark
# with every other gate green.
check-rumorbench:
	cd rumorbench && $(GO) vet . && $(GO) test .

check: build vet fmt-check test check-rumorbench

clean:
	$(GO) clean ./...
