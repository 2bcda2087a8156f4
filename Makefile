GO ?= go

.PHONY: all build test vet lint fmt lines race bench bench-seed regen bench-micro bench-kernel benchmark-smoke perf-pair timeline explore check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# rollvet is the repo's own determinism & protocol-invariant analyzer
# (internal/analysis): virtual-clock discipline, seeded randomness, ordered
# map iteration in protocol paths, no goroutines in sim-driven packages, a
# consistent wire.Kind table, plus the dataflow checks — arena pointers
# must not escape their handler (poolescape), //rollvet:hotpath call trees
# must not allocate (hotalloc), storage/wire errors must be consulted
# (stablewrite), and wire.Kind switches must be exhaustive or defaulted
# (kindswitch). `go test ./...` already enforces it for internal/... and
# the root package; this target also sweeps cmd/ and examples/, then pins
# the suppression count against .rollvet-allow-budget.
lint:
	$(GO) run ./cmd/rollvet ./...
	./scripts/suppression_budget.sh

# fmt checks gofmt cleanliness. internal/analysis/testdata is excluded on
# purpose: its fixtures carry deliberately unidiomatic formatting that the
# analyzer's // want annotations depend on (see ROADMAP).
fmt:
	@out=$$(gofmt -l . | grep -v '^internal/analysis/testdata/' || true); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lines prints the non-test Go line count outside benchmark/ — the number
# ROADMAP item 4's line budget is stated in; every deletion PR reports its
# delta with this command.
lines:
	@find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l

# The race target exercises every package under the race detector (shard
# goroutines share the window barrier and one trace recorder). -short skips the
# n=1024 cells, of which the D1 scale cell (internal/experiments) is still
# too slow under race; the two sharded n=1024 cluster tests are not since
# padding stopped being bytes (77 s for this line on 2 cores, PR 17), so
# the window barrier is raced at the scale that ships. The last two lines
# race, on one thread and on four, both window paths (forced inline, forced
# fan-out, adaptive; DESIGN §5) with the coordinator's callback order, and
# the shard-count differential (1 ≡ 2 ≡ 4 shards for every family, output
# tracking, traffic and timelines).
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/cluster -run 'Sharded1024|ShardedGolden' -count=1
	$(GO) test -race ./internal/sim -run 'Shard|WindowPaths|Callbacks' -cpu 1,4 -count=1
	$(GO) test -race ./internal/cluster -run 'ShardCountChangesNothing' -cpu 1,4 -count=1

# bench runs the tiny reference sweep (the same axes as the committed
# BENCH_seed.json) and gates the result against it at threshold 0 — valid
# because the sweep is deterministic byte-for-byte. See DESIGN.md §9.
BENCH_AXES = -seeds 1,2 -n 4 -f 1 -profiles 1995 -styles nonblocking,blocking
bench:
	$(GO) run ./cmd/bench -label ci -out /tmp/BENCH_ci.json $(BENCH_AXES) -quiet
	$(GO) run ./cmd/bench compare BENCH_seed.json /tmp/BENCH_ci.json -threshold 0

# bench-seed regenerates the committed reference snapshot (and the test
# fixture) after an intentional behavior change.
bench-seed:
	$(GO) test ./internal/bench -run TestGolden -update
	$(GO) run ./cmd/bench -label seed -out BENCH_seed.json $(BENCH_AXES) -quiet

# regen is everything an intended change of the event order has to
# regenerate, in dependency order. The first line prints the new golden
# constants (it fails while they are stale — paste them into
# internal/cluster/golden_test.go and outputs_golden_test.go and run regen
# again); the rest rewrite files: BENCH_seed.json and the internal/bench
# fixtures, the explorer's n=3 report, and every table in EXPERIMENTS.md
# (whose prose, and README's result shapes, are then checked by hand against
# the diff). ≈ 3 min.
regen:
	-$(GO) test ./internal/cluster -run 'Golden' -v -count=1 | grep -E 'fingerprint|^(ok|FAIL|---)'
	$(MAKE) bench-seed
	$(GO) run ./cmd/explore -out internal/explore/testdata/report_n3.golden.json
	./scripts/regen_experiments.sh

# timeline regenerates the D11 recovery-timeline exports (DESIGN §11) into
# ./timelines — deterministic byte-for-byte, so diffs mean behavior changed.
timeline:
	$(GO) run ./cmd/experiments -timeline timelines
	$(GO) run ./cmd/timeline timelines/timeline_D11_fbl.json

# explore runs the failure-schedule explorer's bounded-exhaustive pass at
# n=3 for all three protocol families (DESIGN §13): every decision point ×
# every victim, protocol invariants checked on every branch. Exits non-zero
# on any violation, printing a replayable counterexample.
explore:
	$(GO) run ./cmd/explore -out /tmp/explore_report.json

# bench-micro is the Go micro-benchmark suite (trace hot path).
bench-micro:
	$(GO) test -bench=. -benchmem ./internal/trace/

# bench-kernel runs the sim-kernel scheduler microbenchmarks against the
# in-test container/heap baseline, plus the AllocsPerRun regression gates
# (scheduler, the inline window of the sharded coordinator, output ledger,
# determinant log, and the buffer-ownership gates of DESIGN §5: frame encode
# and decode, heartbeat tick (zero: one frame per incarnation, timer handles
# are values) and delivery, timer arm+Stop (zero), piggyback transmit and
# delivery, checkpoint image).
bench-kernel:
	$(GO) test ./internal/sim ./internal/output ./internal/det ./internal/wire ./internal/fbl ./internal/coord ./internal/optimistic -run 'Allocs' -bench 'BenchmarkKernel|BenchmarkContainerHeap' -benchmem

# benchmark-smoke vets and tests the host-time benchmark (BENCHMARK.json).
# benchmark/ is its own module compiled against internal/..., so the root
# `go build ./...` and `go test ./...` never see it: without this target an
# API rename only surfaces in the benchmark pipeline. ≈ 8 s.
benchmark-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# perf-pair measures the working tree against its parent commit with the
# host-time benchmark (BENCHMARK.json) in alternating pairs and writes
# PERF_$(LABEL).json, the committed results ledger (see the script header);
# ~35 min at the default 10 pairs. Not part of `check`. A change that moves
# simulated behaviour on purpose names the workloads it moves:
# `make perf-pair LABEL=21 BEHAVIOUR=traffic_n8_crash,explore_n4_sweep`;
# one that claims a gain names the cell, and fails unless it improved:
# `make perf-pair LABEL=22 CLAIM=fanout_n256_sharded/alloc_mb`.
LABEL ?= pair
perf-pair:
	./scripts/perf_pair.sh -l $(LABEL) $(if $(BEHAVIOUR),-behaviour-change $(BEHAVIOUR)) $(if $(CLAIM),-claim $(CLAIM))

check: vet lint fmt test race bench benchmark-smoke
