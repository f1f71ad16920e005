GO ?= go

.PHONY: ci fmt vet build test race benchmod bench profile cover ablation faultcamp accessbench fuzzaccessmap fuzzfastcore fuzzstacking replaycheck runcheck campaigncheck telemetrycheck

# ci is the gate the concurrency-touching paths (parallel difftest
# campaign, goroutine-safe Stats, tracer, metrics registry) must keep
# green.
ci: fmt vet build test race benchmod

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# benchmod vets and tests the benchmark (perfbench/ is its own Go module,
# so the root ./... patterns skip it): an API change that stops the
# benchmark compiling fails here, not only in the benchmark pipeline.
benchmod:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# profile runs the whole release campaign with metrics attached and
# prints the merged table plus the folded-stack cycle profile. Use
# `go run ./cmd/profile -h` for single-case / Prometheus / folded modes.
profile:
	$(GO) run ./cmd/profile -all

# cover prints the per-package statement-coverage summary.
cover:
	$(GO) test -cover ./...

# ablation proves the observability and fault-injection subsystems are
# free at the simulated-cycle level when idle (tracer, metrics registry,
# flight recorder, disarmed fault hooks, telemetry plane).
ablation:
	$(GO) test -bench 'Ablation_TraceOverhead|Ablation_MetricsOverhead|Ablation_FaultInjectOverhead|Ablation_FlightRecOverhead|Ablation_TelemetryOverhead' -benchtime 1x -run '^$$' .

# accessbench prints the interval access-map engine against the
# per-byte scan baseline on the 64 KiB acceptance query, per port, so
# the margin stays visible in CI logs. The >= 10x floor is a test,
# TestAccessMapSpeedupGuard, in `make test`.
accessbench:
	$(GO) test -bench 'AccessMap' -benchtime 100x -run '^$$' .

# fuzzaccessmap fuzzes each protection unit's interval engine (armv7m,
# armv8m, riscv) against its per-byte AccessibleUserByteScan, 10 s each.
# The access-map specs read their oracle answers from a prefix-count
# table; these targets check the engine without it. A failing input
# lands in the package's testdata/fuzz/FuzzAccessMapEquivalence/.
fuzzaccessmap:
	$(GO) test -run '^$$' -fuzz '^FuzzAccessMapEquivalence$$' -fuzztime 10s ./internal/armv7m
	$(GO) test -run '^$$' -fuzz '^FuzzAccessMapEquivalence$$' -fuzztime 10s ./internal/armv8m
	$(GO) test -run '^$$' -fuzz '^FuzzAccessMapEquivalence$$' -fuzztime 10s ./internal/riscv

# fuzzfastcore fuzzes each ISA's block-cache fast core against its oracle
# core on twin machines that step, take register upsets, MPU_CTRL
# writes (armv7m) and timer glitches, 10 s each. A failing input lands
# in the package's testdata/fuzz/ directory.
fuzzfastcore:
	$(GO) test -run '^$$' -fuzz '^FuzzFastCoreEquivalence$$' -fuzztime 10s ./internal/armv7m
	$(GO) test -run '^$$' -fuzz '^FuzzRvFastCoreEquivalence$$' -fuzztime 10s ./internal/rv32

# fuzzstacking fuzzes armv7m exception-entry stacking, which asks the MPU
# once per 32-byte granule the frame touches, against the per-word
# reference over forced register states (SIZE < 4, MPU off, PRIVDEFENA,
# SRD), stack pointers that wrap the address space and both privileges,
# 10 s. A failing input lands in
# internal/armv7m/testdata/fuzz/FuzzStackedFrameGranules/.
fuzzstacking:
	$(GO) test -run '^$$' -fuzz '^FuzzStackedFrameGranules$$' -fuzztime 10s ./internal/armv7m

# replaycheck runs the flight-recorder determinism and bisection suite
# under the race detector: byte-identical recordings, replay == live
# state on both ports, injected faults replayed from the recording, and
# seeded difftest divergences bisected to the first divergent field.
replaycheck:
	$(GO) test -race -run 'Determinism|Replay|Bisect|FlightRec|FlightFields|Keyframe|Codec|CompareStates|ThreeWay|Dropped' \
		./internal/flightrec/ ./internal/difftest/ ./internal/trace/ ./internal/armv8m/

# faultcamp runs the seeded fault-injection campaign across both ports
# (ARM and RISC-V) and fails on any isolation-contract violation or
# scenario error. Same seed, same report, byte for byte.
faultcamp:
	$(GO) run ./cmd/faultcamp -n 500

# campaigncheck proves the campaign supervisor's crash-resilience story
# under the race detector — kill-and-resume determinism at varying
# worker counts, one observer checkpoint per journal checkpoint record
# and the live supervision ledger, terminal quarantine across resume, chaos-seeded
# timeout/crash classification, supervised receipts, nested-backoff
# additivity, the per-campaign baseline table (one run per key, results
# equal to RunScenario's, nothing stored by a panic, no lookup waiting
# on another, its counts predicting exactly which injections fire) and
# violation recordings made on demand — then runs a
# chaos campaign whose quarantined scenarios seal as bug-report packs
# (CI archives ./quarantine) and verifies the sealed evidence including
# receipt re-derivation.
campaigncheck:
	$(GO) test -race -count=1 ./internal/campaign/
	$(GO) test -race -count=1 -run 'Supervised|KillAndResume|Chaos|Quarantine|RecordRunsBothOrNeither|EmptyCampaign|NestedBackoff|CampaignObligations|Baseline|LazyRecording' \
		./internal/faultinject/ ./internal/difftest/ ./internal/specs/ ./cmd/faultcamp/
	rm -rf quarantine && mkdir -p quarantine
	$(GO) run ./cmd/faultcamp -seed 7 -n 12 -chaos "wedge:2,panic:9" -timeout 2s -retries 1 -quarantine quarantine
	$(GO) run ./cmd/runpack verify -rerun quarantine/*

# telemetrycheck proves the live telemetry plane end to end under the
# race detector: plane/progress and scrape-server unit suites (driven
# by real supervised campaigns), /progress and the timeline reading the
# supervisor's own ledger across stop, resume and no journal
# (TestTelemetryReadsSupervisionLedger), the
# net/http-free dependency closure of the campaign packages, the
# streaming aggregation invariants (live aggregate == post-hoc merge at
# any worker count), traced == untraced results, the exposition
# round-trip, and the mid-run HTTP scrape — a supervised campaign run
# with -serve must answer /metrics, /progress, /healthz and /timeline
# while running, with validated payloads — then the zero-sim-cycle
# ablation guard.
telemetrycheck:
	$(GO) test -race -count=1 ./internal/telemetry/...
	$(GO) test -race -count=1 -run 'Telemetry|ServeAnswersMidRun|Exposition|RoundTrip|Help|ContentType|Fleet|Traced|LiveAggregate|LiveEquals|Blockcache|SnapshotUnderConcurrent|HistogramQuantile' \
		./internal/metrics/ ./internal/trace/ ./internal/difftest/ ./internal/faultinject/ ./cmd/faultcamp/
	$(GO) test -bench 'Ablation_TelemetryOverhead' -benchtime 1x -run '^$$' .

# runcheck exercises the artifact provenance chain end to end: emit a
# small campaign pack, a difftest pack and a replay pack into ./runpacks,
# verify every one — including re-deriving each result in-process from
# its receipt — and replay the committed distilled-regression suite
# under the race detector. See docs/ARTIFACTS.md.
runcheck:
	rm -rf runpacks && mkdir -p runpacks
	$(GO) run ./cmd/faultcamp -seed 7 -n 20 -runpack runpacks
	$(GO) run ./cmd/difftest -runpack runpacks
	$(GO) run ./cmd/replay -record mpu_walk_region -runpack runpacks
	$(GO) run ./cmd/runpack ls runpacks
	$(GO) run ./cmd/runpack verify -rerun runpacks/*
	$(GO) test -race -run 'TestRegressions|TestRegressionFailsBeforeFix|TestCommittedPackContents' ./internal/runpack/
