GO ?= go
GOFMT ?= gofmt

# Quick performance benchmarks: the simulator hot loop, the trace
# generator, and the batched-sweep speedup. Medians over BENCH_COUNT
# repetitions absorb scheduler noise. BENCH_TOLERANCE is the allowed
# fractional regression before bench-gate fails; CI relaxes it because
# shared runners are noisier than a dev box.
BENCH_QUICK = 'BenchmarkSimulatorThroughput$$|BenchmarkTraceGeneration$$|BenchmarkBatchedSweep$$|BenchmarkParallelBatchedSweep'
BENCH_TIME ?= 10x
BENCH_COUNT ?= 3
BENCH_TOLERANCE ?= 0.10

.PHONY: build test race race-serve lint inline-check verify bench bench-quick bench-gate bench-lanes trace-sample scenarios loadgen-smoke serve

# Tier-1 verification (ROADMAP.md): build + tests, then the race detector
# and static checks. The experiment harness fans simulations out onto a
# worker pool, so any data race is a correctness bug — `race` is part of
# `verify`, not optional. race-serve adds a short-mode -race pass focused
# on the job service, durable store, and fleet layer, whose concurrency
# (worker pool, queue, leases, atomic same-key writers) is their whole
# point. inline-check fails verify when a replacement kernel on the cache
# access path stops inlining. bench-gate fails verify when the quick
# benchmarks regress >10% against BENCH_sim.json.
verify: build test race race-serve lint inline-check scenarios loadgen-smoke bench-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race: the full suite under the race detector, then a second pass over
# the lockstep-batch and batched-sweep tests with DRISHTI_LANE_WORKERS=2.
# The second pass matters on small hosts: lane-worker defaults follow
# GOMAXPROCS, so on a 1-CPU runner the plain -race run never schedules two
# lanes concurrently and the parallel merge/telemetry paths go untested.
# The third runs the serial loop's record feed at 1 and 2 Ps: one P
# interleaves its producer and consumer goroutines, two run them in
# parallel. It also runs the lane-lifecycle tests there: lanes built,
# recycled into the next lane and released on pool workers, a recycled
# lane matching a fresh run, and a lane that fails to build.
race:
	$(GO) test -race ./...
	DRISHTI_LANE_WORKERS=2 $(GO) test -race \
		-run 'TestBatch|TestGoldenBatched|TestSweepBatched' \
		./internal/sim/ ./internal/experiments/
	$(GO) test -race -count 1 -cpu 1,2 \
		-run 'TestFeed|TestGolden|TestRunMixContext|TestBatchWorkersLaneLifetime|TestBatchWorkersBadLaneError|TestBatchWorkersRecycledMatchesFresh' \
		./internal/workload/ ./internal/sim/

race-serve:
	$(GO) test -race -short ./internal/serve/... ./internal/store/ ./internal/dist/ ./internal/obs/trace/

# lint: go vet plus a gofmt cleanliness check (fails listing unformatted
# files; run `gofmt -w` on them to fix).
lint:
	$(GO) vet ./...
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# inline-check: build internal/repl and internal/cache with -gcflags=-m and
# fail if LRU.touch, the LRU/SRRIP OnHit/OnFill/Victim callbacks or
# Cache.probeSet stop inlining (scripts/inline-check.sh lists them). A
# kernel that silently de-inlines slows every simulated access and fails no
# test.
inline-check:
	GO=$(GO) sh scripts/inline-check.sh

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-quick: run the hot-loop benchmarks and record their medians as the
# committed baseline BENCH_sim.json (see scripts/benchcmp).
bench-quick:
	$(GO) test -run '^$$' -bench $(BENCH_QUICK) -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) . \
		| $(GO) run ./scripts/benchcmp -record -out BENCH_sim.json

# bench-lanes: the lane-worker scaling benchmark on its own, at -benchtime
# defaults long enough to read a speedup from. Compare the w1/w2/wmax
# instr/s lines directly: wN/w1 is the intra-batch lane speedup on this
# host (see EXPERIMENTS.md §1.9 for recorded numbers).
bench-lanes:
	$(GO) test -run '^$$' -bench 'BenchmarkParallelBatchedSweep' -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) .

# bench-gate: same benchmarks, compared against the committed baseline;
# fails on a throughput regression beyond BENCH_TOLERANCE (default 10%).
# The raw benchmark output, with -benchmem's B/op and allocs/op columns
# (the gate itself reads only ns/op and instr/s), lands in BENCH_gate.txt
# so CI can upload it as an artifact even when the gate fails.
bench-gate:
	$(GO) test -run '^$$' -bench $(BENCH_QUICK) -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) . > BENCH_gate.txt
	$(GO) run ./scripts/benchcmp -check -baseline BENCH_sim.json -tolerance $(BENCH_TOLERANCE) < BENCH_gate.txt

# scenarios: validate every committed scenario spec (parse, strict-decode,
# compile, content address) and run the small trace-replay spec end to end
# as a smoke test. The compiled summaries — run names, core counts, and
# the exact cfg/mix keys each spec resolves to — accumulate in
# SCENARIOS_compiled.json, which CI uploads as an artifact next to
# BENCH_sim.json.
scenarios:
	@rm -f SCENARIOS_compiled.json
	@set -e; for f in examples/scenarios/*.yaml; do \
		echo "scenario check $$f"; \
		$(GO) run ./cmd/drishti-sim -scenario $$f -check -json >> SCENARIOS_compiled.json; \
	done
	$(GO) run ./cmd/drishti-sim -scenario examples/scenarios/trace-replay.yaml -quiet > /dev/null

# loadgen-smoke: a short open-loop run against an in-process fleet of two
# peered coordinators over a two-shard store (README "Scaling out"),
# asserting zero lost or duplicated result cells (-strict exits non-zero
# otherwise). The latency/throughput summary lands in LOADGEN_summary.json,
# which CI uploads as an artifact next to BENCH_sim.json; recorded
# baselines live in EXPERIMENTS.md §1.10.
loadgen-smoke:
	$(GO) run ./cmd/drishti-loadgen -coordinators 2 -shards 2 -jobs 12 -rate 8 \
		-instr 20000 -warmup 5000 -strict -quiet -out LOADGEN_summary.json

# trace-sample: run one traced job through an in-process service and write
# its span journal (render with drishti-sim -trace-timeline).
trace-sample:
	$(GO) run ./scripts/tracesample -out trace-sample.ndjson

# serve: build and run the simulation job service (README "Running the
# service"). Results and the persisted queue land in ./drishti.store.
serve:
	$(GO) run ./cmd/drishti-served -addr :8411 -store drishti.store
