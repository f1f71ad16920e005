GO ?= go

.PHONY: ci fmt vet build test race benchmod bench profile cover ablation faultcamp accessbench benchjson replaycheck runcheck campaigncheck telemetrycheck

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

# accessbench records the interval access-map engine against the
# per-byte scan baseline on the 64 KiB acceptance query, per port, and
# emits the machine-readable artifact CI archives.
accessbench:
	$(GO) test -bench 'AccessMap' -benchtime 100x -run '^$$' .
	$(GO) run ./cmd/benchtab -accessmap-json BENCH_accessmap.json
	$(GO) run ./cmd/benchtab -validate BENCH_accessmap.json

# benchjson emits and validates the machine-readable benchmark
# artifacts — the perf trajectory CI plots across commits. The kernel
# and accessmap artifacts are regenerated per run; the blockcache one
# is also committed at the repo root so the pinned >= 5x fast-core
# speedup travels with the tree (regenerate on a quiet machine).
benchjson:
	$(GO) run ./cmd/benchtab -json BENCH_kernel.json -accessmap-json BENCH_accessmap.json -blockcache-json BENCH_blockcache.json
	$(GO) run ./cmd/benchtab -validate BENCH_kernel.json,BENCH_accessmap.json,BENCH_blockcache.json
	@for f in BENCH_kernel.json BENCH_accessmap.json BENCH_blockcache.json; do \
		test -s $$f || { echo "missing artifact $$f"; exit 1; }; done

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
# worker counts, terminal quarantine across resume, chaos-seeded
# timeout/crash classification, supervised receipts, nested-backoff
# additivity — then runs a chaos campaign whose quarantined scenarios
# seal as bug-report packs (CI archives ./quarantine) and verifies the
# sealed evidence including receipt re-derivation.
campaigncheck:
	$(GO) test -race -count=1 ./internal/campaign/
	$(GO) test -race -count=1 -run 'Supervised|KillAndResume|Chaos|Quarantine|RecordRunsBothOrNeither|EmptyCampaign|NestedBackoff|CampaignObligations' \
		./internal/faultinject/ ./internal/difftest/ ./internal/specs/ ./cmd/faultcamp/
	rm -rf quarantine && mkdir -p quarantine
	$(GO) run ./cmd/faultcamp -seed 7 -n 12 -chaos "wedge:2,panic:9" -timeout 2s -retries 1 -quarantine quarantine
	$(GO) run ./cmd/runpack verify -rerun quarantine/*

# telemetrycheck proves the live telemetry plane end to end under the
# race detector: plane/server/progress unit suites, the streaming
# aggregation invariants (live aggregate == post-hoc merge at any worker
# count), traced == untraced results, the exposition round-trip, and the
# mid-run HTTP scrape — a supervised campaign run with -serve must
# answer /metrics, /progress, /healthz and /timeline while running, with
# validated payloads — then the zero-sim-cycle ablation guard.
telemetrycheck:
	$(GO) test -race -count=1 ./internal/telemetry/
	$(GO) test -race -count=1 -run 'Telemetry|ServeAnswersMidRun|Delta|Exposition|RoundTrip|Help|ContentType|Fleet|Traced|LiveAggregate|LiveEquals|Blockcache|SnapshotUnderConcurrent|HistogramQuantile' \
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
