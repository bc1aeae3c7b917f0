GO ?= go

.PHONY: build test race vet bench bench-json bench-sched bench-shard bench-control bench-compare bench-obs check fuzz-smoke chaos-soak ckpt-soak

build:
	$(GO) build ./...

# -shuffle=on randomises test order so accidental inter-test state
# (shared globals, leftover files) cannot hide behind a lucky ordering.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench is a smoke run: every benchmark executes once, which catches
# compile rot and setup panics without CI paying for stable timings.
bench:
	$(GO) test -bench . -benchtime 1x -count 1 -run '^$$' ./...

# bench-json regenerates the committed BENCH_*.json trajectory record
# from the full evaluation run (see cmd/evolve-bench). Figure 6 — the
# kernel scale sweep to 100k nodes / 1M pods — dominates the wall time;
# the trailing summary line carries its raw rows (with per-phase
# breakdown) plus Figure 12's control-plane rows.
bench-json:
	$(GO) run ./cmd/evolve-bench -json > BENCH_16.json

# bench-shard is the sharded-kernel regression smoke at CI scale: the
# first three points of the Figure 6 ladder under shard counts {1, 4},
# plus the determinism suite that pins byte-identical replay across
# shard and worker counts with the kernel invariant checker armed every
# tick, and the tick fan-out's gates (three rounds per tick, zero
# allocations at 4 shards on 4 workers) under the race detector.
bench-shard:
	$(GO) run ./cmd/evolve-bench -json -quick -scale-points 3 -shards 4 -only figure6
	$(GO) test ./internal/harness -run 'TestSharded' -count 1 -v
	$(GO) test -race ./internal/cluster -run 'TestFanOut' -count 1 -v

# bench-control is the control-plane scaling regression smoke at CI
# scale: the quick Figure 12 ladder, the sweep's smoke test, the
# control step's invariant check and zero-allocation gate, and the
# zero-allocation gate of a steady (unchanged) actuation.
bench-control:
	$(GO) run ./cmd/evolve-bench -json -quick -only figure12
	$(GO) test ./internal/harness -run 'TestFigure12' -count 1 -v
	$(GO) test ./internal/control -run 'TestLoopApplyOrderDeterministic|TestControlEvalAllocs' -count 1 -v
	$(GO) test ./internal/cluster -run 'TestSteadyDecisionAllocs' -count 1 -v

# bench-compare guards the committed scale trajectory: the current
# record's kernel rows must not regress ms_per_tick or shard speedup —
# nor its control-plane rows ms_per_period — by more than 15% against
# the previous record on matching points. 1-shard and control-plane
# rows fail on absolute ms; multi-shard rows fail when both ms and
# within-record speedup regress (the checks disagreeing means the
# shared 1-shard baseline moved, not the row — see cmd/bench-compare).
bench-compare:
	$(GO) run ./cmd/bench-compare -old BENCH_15.json -new BENCH_16.json

# bench-sched is the scheduler hot-path regression smoke: the sched
# benchmarks at a fixed iteration count (so -benchtime noise cannot mask
# a panic or a blow-up), the steady-state allocation gates, and the
# drain's deterministic probe-count gate (TestDrainProbesPerReplica) — a
# regression in any fails the job.
bench-sched:
	$(GO) test ./internal/sched -run 'SteadyStateAllocs' -bench . -benchtime 100x -count 1 -v
	$(GO) test ./internal/cluster -run 'TestTickSteadyStateAllocs|TestDrainProbesPerReplica' -bench 'BenchmarkScheduleGang|BenchmarkSchedulePending/pods-500$$' -benchtime 20x -count 1

# bench-obs is the observability overhead job: the span-off vs span-on
# tick pair (BenchmarkTick vs BenchmarkTickTraced — installing a tracer
# enables the span layer with it), the many-apps-shaped tick
# (BenchmarkTickManyApps: 512 services, each appending one 17-column
# metric frame per tick), the traced and untraced steady-state
# allocation gates, and the span/latency emission tests. A traced tick
# that starts allocating per pod, or a steady tick that records spans,
# fails here. The checkpoint pair reports encode throughput (MB/s) and
# fails when encoding allocates per metric sample or trace-ring entry;
# the tracer rings' gate fails when recording into a wrapped ring
# allocates or lets a chunk a retained checkpoint references be
# recycled, and BenchmarkTracerCkptSave reports the tracer section's
# encode throughput (MB/s). The state-bounded gates fail when a windowed metric series allocates
# once it holds its window, or when a default-History world's
# checkpoint or heap grows from 3 to 12 simulated hours. The periodic
# firing's gate fails when a checkpoint of wrapped rings allocates in
# proportion to the rings instead of to what changed, and
# BenchmarkPeriodicCheckpoint reports one firing's MB/s and allocations.
# The control gate fails when a period driven by the real autoscaler,
# journaling included, allocates (a formatted rationale, a sliding
# tuner window, a fresh app list).
bench-obs:
	$(GO) test ./internal/cluster -run 'TestTickSteadyStateAllocs|TestTickWindowedHistoryAllocs|TestTickTracedAllocsBudget|TestPodSpansEmitted' \
		-bench 'BenchmarkTick/|BenchmarkTickTraced/|BenchmarkTickManyApps/' -benchtime 20x -count 1 -v
	$(GO) test ./internal/obs -run 'TestSpan|TestLatency|TestRingRecordAllocs|TestRingPinsReferencedChunks' -bench 'BenchmarkObserveLatency|BenchmarkTracerCkptSave' -benchtime 100x -count 1 -v
	$(GO) test . -run 'TestCheckpointEncodeAllocs|TestStateBoundedByHistory|TestPeriodicCheckpointAllocs' -bench 'BenchmarkCheckpoint$$|BenchmarkPeriodicCheckpoint' -benchtime 20x -count 1 -v
	$(GO) test ./internal/core ./internal/pid -run 'TestAutoscalerControlAllocs|TestTunerWindowSlidesInPlace' -count 1 -v

# fuzz-smoke gives the chaos-plan parser, checkpoint restore and the
# typed rationale comparison a short fuzzing budget each: long enough to
# catch parse/round-trip regressions, decoder panics behind the checksum
# and a comparison that disagrees with the rendered text, short enough
# for CI.
fuzz-smoke:
	$(GO) test -fuzz FuzzParsePlan -fuzztime 15s -run '^$$' ./internal/chaos
	$(GO) test -fuzz FuzzRestore -fuzztime 15s -run '^$$' .
	$(GO) test -fuzz FuzzRationaleSameText -fuzztime 15s -run '^$$' ./internal/control

# chaos-soak runs the everything-at-once fault profile end to end (the
# TestChaosSoak harness test plus the mixed-profile CLI path).
chaos-soak:
	$(GO) test -run 'TestChaosSoak|TestTable7' -v ./internal/harness
	$(GO) run ./cmd/evolve-sim -chaos mixed -duration 2h > /dev/null

# ckpt-soak is the crash-consistency gauntlet: the full shard matrix of
# the headline byte-identity invariant, the chained crash/restore soak
# at every shard count, the Table 8 sweep, and the CLI resume path —
# a run killed at 40m and resumed must print the same report as one
# that never died. The traced leg repeats the resume with 512-record
# trace rings, which wrap, so the checkpoint files carry ring chunks
# that in-memory checkpoints referenced. Each CLI leg works in its own
# mktemp -d directory, removed when its diff passes and left for
# inspection when it fails.
ckpt-soak:
	EVOLVE_CKPT_SOAK=1 $(GO) test -run 'TestCheckpoint|TestResumeFromPeriodic|TestCtrlCrash' -count 1 -v .
	$(GO) test ./internal/harness -run 'TestTable8' -count 1
	d=$$(mktemp -d) && \
	$(GO) run ./cmd/evolve-sim -seed 7 -duration 40m -ckpt-dir $$d -ckpt-every 10m 2>/dev/null >/dev/null && \
	$(GO) run ./cmd/evolve-sim -seed 7 -duration 2h -ckpt-dir $$d -ckpt-every 10m -resume 2>$$d/resumed.txt >/dev/null && \
	$(GO) run ./cmd/evolve-sim -seed 7 -duration 2h -ckpt-every 10m 2>$$d/whole.txt >/dev/null && \
	grep -v '^evolve-sim:' $$d/resumed.txt > $$d/resumed.report && \
	grep -v '^evolve-sim:' $$d/whole.txt > $$d/whole.report && \
	diff $$d/resumed.report $$d/whole.report && \
	rm -rf $$d
	@echo "ckpt-soak: resumed report is byte-identical to the uninterrupted run"
	d=$$(mktemp -d) && mkdir $$d/ck && \
	$(GO) run ./cmd/evolve-sim -seed 7 -duration 40m -trace-buf 512 -trace $$d/first.trace -spans $$d/first.spans -ckpt-dir $$d/ck -ckpt-every 10m 2>/dev/null >/dev/null && \
	$(GO) run ./cmd/evolve-sim -seed 7 -duration 2h -trace-buf 512 -trace $$d/resumed.trace -spans $$d/resumed.spans -ckpt-dir $$d/ck -ckpt-every 10m -resume 2>$$d/resumed.txt >/dev/null && \
	$(GO) run ./cmd/evolve-sim -seed 7 -duration 2h -trace-buf 512 -trace $$d/whole.trace -spans $$d/whole.spans -ckpt-every 10m 2>$$d/whole.txt >/dev/null && \
	grep -v '^evolve-sim:' $$d/resumed.txt > $$d/resumed.report && \
	grep -v '^evolve-sim:' $$d/whole.txt > $$d/whole.report && \
	diff $$d/resumed.report $$d/whole.report && \
	rm -rf $$d
	@echo "ckpt-soak: traced resumed report is byte-identical to the uninterrupted traced run"

# check is the CI gate: static analysis plus the full suite under the
# race detector (the parallel runner must be race-clean, not just fast).
check: vet race
