GO ?= go

.PHONY: all build test vet lint fmt lines race bench bench-seed regen bench-micro bench-kernel benchmark-smoke perf-pair behaviour-cmp timeline explore check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# rollvet is the repo's own determinism & protocol-invariant analyzer
# (internal/analysis): virtual-clock discipline, seeded randomness, ordered
# map iteration in protocol paths, no goroutines in sim-driven packages,
# plus the dataflow checks — arena pointers must not escape their handler
# (poolescape) and storage/wire errors must be consulted (stablewrite).
# `go test ./...` already enforces it for internal/... and the root
# package; this target also sweeps cmd/ and examples/, then pins the
# suppression count against .rollvet-allow-budget. Its last line keeps seeded
# bugs on the one switch, mutant.On: no other package-level Testing… variable
# outside sim/testing.go's frame poisoner.
lint:
	$(GO) run ./cmd/rollvet ./...
	./scripts/suppression_budget.sh
	@! grep -rnE --include='*.go' --exclude='*_test.go' '^(var[[:space:]]+|[[:space:]])Testing[A-Z]' internal cmd | grep -v '^internal/sim/testing.go:' || { echo 'lint: seed a test-only bug through mutant.On, not a Testing… variable'; exit 1; }

# fmt checks gofmt cleanliness. internal/analysis/testdata is excluded on
# purpose: its fixtures carry deliberately unidiomatic formatting that the
# analyzer's // want annotations depend on (see ROADMAP).
fmt:
	@out=$$(gofmt -l . | grep -v '^internal/analysis/testdata/' || true); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lines prints the non-test Go line count outside benchmark/ — the number
# the line target of ROADMAP's "Say it with less" item is stated in; every
# deletion PR reports its delta with this command, and
# scripts/lines_budget.sh pins it in .lines-budget.
lines:
	@find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l

# The race target exercises every package under the race detector (shard
# goroutines share the window barrier and one trace recorder). -short skips the
# n=1024 cells, of which the D1 scale cell (internal/experiments) is still
# too slow under race; the two sharded n=1024 cluster tests are not since
# padding stopped being bytes (77 s for this line on 2 cores, PR 17), so
# the window barrier is raced at the scale that ships. The next two lines
# race, on one thread and on four, both window paths (forced inline, forced
# fan-out, adaptive; DESIGN §5) with the coordinator's callback order, and
# the shard-count differential (1 ≡ 2 ≡ 4 shards for every family, output
# tracking, traffic, timelines, jitter, drops and a partition) with its
# poisoned-frame twin, and a reset cluster against a fresh one at 1 and 2
# shards. The last races the explorer's branch
# pool (DESIGN §13): the goldens, the 1/2/5-worker differential, the
# mutant and the protocol panic, whose package globals the workers read, and
# branches on reset clusters, which the workers hand each other.
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/cluster -run 'Sharded1024|ShardedGolden' -count=1
	$(GO) test -race ./internal/sim -run 'Shard|WindowPaths|Callbacks' -cpu 1,4 -count=1
	$(GO) test -race ./internal/cluster -run 'ShardCountChangesNothing|Poison|Reset' -cpu 1,4 -count=1
	$(GO) test -race ./internal/explore -run 'Golden|Parallel|Mutation|Panic|Reset' -cpu 1,4 -count=1

# bench is the sweep's golden test: the BENCH_AXES sweep, on one worker and
# on four, under -cpu 1 and 4, must equal the committed BENCH_seed.json —
# axes and every cell — because the sweep is deterministic byte-for-byte.
# See DESIGN.md §9.
BENCH_AXES = -seeds 1,2 -n 4 -f 1 -profiles 1995 -styles nonblocking,blocking
bench:
	$(GO) test ./internal/experiments -run '^TestGoldenSnapshotByteStable$$' -cpu 1,4 -count=1

# bench-seed regenerates the committed reference snapshot after an
# intentional behavior change; TestGoldenSnapshotByteStable
# (internal/experiments) reads it as its fixture.
bench-seed:
	$(GO) run ./cmd/experiments sweep -label seed -out BENCH_seed.json $(BENCH_AXES)

# regen is everything an intended change of the event order has to
# regenerate, in dependency order. The first line prints the new golden
# constants (it fails while they are stale — paste them into
# internal/cluster/golden_test.go and outputs_golden_test.go and run regen
# again); the rest rewrite files: BENCH_seed.json (also the sweep's test
# fixture), the explorer's n=3 and n=4 two-crash reports and its FBL n=4
# three-crash one, and every table in EXPERIMENTS.md
# (whose prose, and README's result shapes, are then checked by hand against
# the diff). ≈ 3 min.
regen:
	-$(GO) test ./internal/cluster -run 'Golden' -v -count=1 | grep -E 'fingerprint|^(ok|FAIL|---)'
	$(MAKE) bench-seed
	$(GO) run ./cmd/explore -out internal/explore/testdata/report_n3.golden.json
	$(GO) run ./cmd/explore -n 4 -max-crashes 2 -random 50 -out internal/explore/testdata/report_n4_2crash.golden.json
	$(GO) run ./cmd/explore -families fbl -n 4 -f 3 -max-crashes 3 -random 50 -out internal/explore/testdata/report_n4_3crash.golden.json
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
# determinant log and its holder sets, the stable store's size reads, the
# channel layer's in-order admit and send window (zero),
# and the buffer-ownership gates of DESIGN §5: frame encode and decode,
# a message through the kernel (zero: unicast frame buffers are recycled, on
# one shard and across two), heartbeat tick (zero: one frame per
# incarnation, timer handles are values) and delivery, timer arm+Stop
# (zero), piggyback transmit and delivery, a
# depinfo reply and the f = n flush to storage (the frame alone),
# checkpoint image), every family's
# control sends (no envelope: TestSendAllocs in coord, optimistic and
# recovery), an optimistic in-order delivery (the log entry's vector and
# payload: TestDeliverAllocs), a coordinated snapshot's begin (its writer and
# marker frame, no recording arrays: TestSnapshotBeginAllocs), a stable
# write (zero) and read (its copy and a closure), an output
# request and its release (zero: TestOutputRequestAllocs), the apps'
# Handle (the payload it sends, nothing else), and an explorer branch on a
# reset cluster (at least 45 % below a fresh build: TestReusedBranchAllocs).
bench-kernel:
	$(GO) test ./internal/sim ./internal/output ./internal/det ./internal/wire ./internal/channel ./internal/fbl ./internal/coord ./internal/optimistic ./internal/recovery ./internal/bitset ./internal/storage ./internal/workload ./internal/explore -run 'Allocs' -bench 'BenchmarkKernel|BenchmarkContainerHeap' -benchmem

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

# behaviour-cmp runs the list of simulated-behaviour artifacts (timeline
# exports, explorer reports, an fblsim run, experiment tables, the reference
# sweep) on the working tree and on its parent commit and names every one
# that is not byte-identical (scripts/behaviour_cmp.sh); ≈ 1.5 min. A change
# that moves no simulated byte on purpose proves it with this.
# `make behaviour-cmp PARENT=HEAD` compares against HEAD instead of HEAD~.
PARENT ?= HEAD~
behaviour-cmp:
	./scripts/behaviour_cmp.sh -p $(PARENT)

check: vet lint fmt test race bench benchmark-smoke
