# hhcw — reproduction of "Scalable Composable Workflows in
# Hyper-Heterogeneous Computing Environments" (WORKS @ SC 2023).

GO ?= go

.PHONY: all build vet test test-race bench-module cli-digests cover fuzz chaos sweep bench bench-json bench-json-short profile experiments examples compose clean

all: build vet test test-race bench-module cli-digests chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the sweep worker pool (and all future concurrency) on every
# tier-1 run.
test-race:
	$(GO) test -race ./...

# The end-to-end benchmark is a module of its own (bench/go.mod) built
# against the library's internal packages, so build, vet and test above never
# see it. Vet and test it here, so a library API change cannot break the
# benchmark unnoticed.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Byte-identity of twenty-one CLI reports against digests committed in
# testdata/cli-digests.sha256: the CWS storm sweep, the lazily composed
# atlas-uq storm sweep (recursive workflow-as-node composition expanded at
# runtime), the §3.5 waste study
# (with the Airflow big-worker baseline) as text and as JSON, whose
# full-precision cuts the text rounds away, the §3 cws_scheduling example,
# the service arrivals sweep, the stormy prediction ablation, the §6
# JAWS runs (fusion, cached rerun and fair-share cap; the multi-user service
# with partial and full cache hits; the JSON report; the migration example),
# the §4 EnTK pilot's Fig. 4/5 time series, the full ExaAM campaign
# (Fig. 3: five EnTK applications with dynamic stages, injected failures and
# resubmission jobs) and the ExaAM UQ example's resubmission job, and the §5
# Atlas tables (cloud fleet and storage transfers), the HPC pilot and cloud
# fleet environments as single runs and sweeps, and the quickstart and
# composed-pipeline examples.
# A refactor that must not change behaviour leaves every stdout unchanged.
# The sweeps pin -workers 1 because their headers print the worker count.
cli-digests:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/wfsim -faults storm -env k8s-cws -sweep 25 -workers 1 > "$$tmp/wfsim-storm-cws-sweep25.txt" && \
	$(GO) run ./cmd/wfsim -registry atlas-uq -expand lazy -env k8s -faults storm -sweep 25 -workers 1 > "$$tmp/wfsim-lazy-atlas-uq-storm-sweep25.txt" && \
	$(GO) run ./cmd/cwsbench -waste > "$$tmp/cwsbench-waste.txt" && \
	$(GO) run ./cmd/cwsbench -waste -json > "$$tmp/cwsbench-waste-json.txt" && \
	$(GO) run ./examples/cws_scheduling > "$$tmp/cws-scheduling.txt" && \
	$(GO) run ./cmd/sweeprun -arrivals -seeds 25 -workers 1 > "$$tmp/sweeprun-arrivals-seeds25.txt" && \
	$(GO) run ./cmd/sweeprun -predict -faults storm -seeds 25 -workers 1 > "$$tmp/sweeprun-predict-storm-seeds25.txt" && \
	$(GO) run ./cmd/jawsrun > "$$tmp/jawsrun.txt" && \
	$(GO) run ./cmd/jawsrun -stats > "$$tmp/jawsrun-stats.txt" && \
	$(GO) run ./cmd/jawsrun -json > "$$tmp/jawsrun-json.txt" && \
	$(GO) run ./examples/jaws_migration > "$$tmp/jaws-migration.txt" && \
	$(GO) run ./cmd/entkrun -series > "$$tmp/entkrun-series.txt" && \
	$(GO) run ./cmd/entkrun -full > "$$tmp/entkrun-full.txt" && \
	$(GO) run ./examples/exaam_uq > "$$tmp/exaam-uq.txt" && \
	$(GO) run ./cmd/atlasrun > "$$tmp/atlasrun.txt" && \
	$(GO) run ./cmd/wfsim -env hpc -sweep 25 -workers 1 > "$$tmp/wfsim-hpc-sweep25.txt" && \
	$(GO) run ./cmd/wfsim -env cloud -sweep 25 -workers 1 > "$$tmp/wfsim-cloud-sweep25.txt" && \
	$(GO) run ./cmd/wfsim -env hpc > "$$tmp/wfsim-hpc.txt" && \
	$(GO) run ./cmd/wfsim -env cloud > "$$tmp/wfsim-cloud.txt" && \
	$(GO) run ./examples/quickstart > "$$tmp/quickstart.txt" && \
	$(GO) run ./examples/composed_pipeline > "$$tmp/composed-pipeline.txt" && \
	cd "$$tmp" && sha256sum -c "$(CURDIR)/testdata/cli-digests.sha256"

# Full-suite coverage profile (atomic mode: the sweep pool is concurrent).
# CI runs this in the test job, uploads coverage.out as an artifact, and the
# total below is the number README quotes.
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Eight short fuzz passes — the same lane CI runs non-blocking: the WDL parser,
# the streamed scatter's shard IDs against Compile's, randx.Source against
# math/rand, dag.Workflow against its map-based
# reference, the cluster index's FirstFit against a rescan, the event
# engine against its container/heap reference, rm.IDLess against the
# order of rendered submission IDs, and the CWS's dispatch order against a
# stable sort. Go fuzzes one target per invocation. Minimizing a new
# interesting input may take 60 s by default, more than a target's whole
# 45 s budget, so each minimization is capped at 2 s.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseWDL -fuzztime 45s -fuzzminimizetime 2s ./internal/jaws
	$(GO) test -run '^$$' -fuzz FuzzScatterIDs -fuzztime 45s -fuzzminimizetime 2s ./internal/jaws
	$(GO) test -run '^$$' -fuzz FuzzSourceMatchesMathRand -fuzztime 45s -fuzzminimizetime 2s ./internal/randx
	$(GO) test -run '^$$' -fuzz FuzzWorkflowMatchesReference -fuzztime 45s -fuzzminimizetime 2s ./internal/dag
	$(GO) test -run '^$$' -fuzz FuzzFirstFitMatchesScan -fuzztime 45s -fuzzminimizetime 2s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzEngineMatchesReference -fuzztime 45s -fuzzminimizetime 2s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzSubmissionIDOrder -fuzztime 45s -fuzzminimizetime 2s ./internal/rm
	$(GO) test -run '^$$' -fuzz FuzzPrioritizeMatchesStableSort -fuzztime 45s -fuzzminimizetime 2s ./internal/cwsi

# The §3.5 CWS comparison as a 200-seed distribution on a parallel worker
# pool. Same seeds ⇒ bit-identical table, independent of worker count.
sweep:
	$(GO) run ./cmd/sweeprun -seeds 200

# Chaos smoke: short fault-injected sweeps under each named profile. The
# deterministic failure layer means these are as reproducible as `sweep`.
chaos:
	$(GO) run ./cmd/wfsim -faults mtbf -env k8s -sweep 25 -workers 4
	$(GO) run ./cmd/wfsim -faults storm -env k8s-cws -sweep 25 -workers 4
	$(GO) run ./cmd/sweeprun -faults spot -seeds 25

# One benchmark per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Perf-regression gate: run the tracked suite, write BENCH_<timestamp>.json,
# and fail if any gated metric (allocs/op, B/op, domain metrics) regressed
# vs the committed baseline. To refresh the baseline after a deliberate
# change: `go run ./cmd/benchreport -out BENCH_baseline.json` and commit it
# (see docs/bench-schema.md).
bench-json:
	$(GO) run ./cmd/benchreport -baseline BENCH_baseline.json

# Quick validity smoke for CI: reduced workloads, no baseline comparison
# (short and full reports are not comparable), self-consistency only.
bench-json-short:
	$(GO) run ./cmd/benchreport -short -out BENCH_short.json

# Profile the ensemble hot path: the 200-seed sweep with CPU and heap
# profiles. Every cmd/ binary accepts -cpuprofile/-memprofile via the shared
# driver runtime; inspect with `go tool pprof cpu.prof` / `mem.prof`.
profile:
	$(GO) run ./cmd/sweeprun -seeds 200 -cpuprofile cpu.prof -memprofile mem.prof

# Regenerate every experiment's human-readable output.
experiments:
	$(GO) run ./cmd/entkrun
	$(GO) run ./cmd/entkrun -full
	$(GO) run ./cmd/atlasrun
	$(GO) run ./cmd/cwsbench -waste
	$(GO) run ./cmd/jawsrun
	$(GO) run ./cmd/jawsrun -lint
	$(GO) run ./cmd/llmrun
	$(GO) run ./cmd/llmrun -agents -inject
	$(GO) run ./cmd/llmrun -sweep -limit 2000
	$(GO) run ./cmd/sweeprun -seeds 50

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cws_scheduling
	$(GO) run ./examples/exaam_uq
	$(GO) run ./examples/transcriptomics_atlas
	$(GO) run ./examples/llm_compose
	$(GO) run ./examples/jaws_migration
	$(GO) run ./examples/adaptive_uq
	$(GO) run ./examples/composed_pipeline

# The flagship cross-subsystem composition: Atlas salmon pipeline → ExaAM UQ
# ensemble, compiled by the compose layer and run with faults, retry,
# provenance, and a stable fingerprint.
compose:
	$(GO) run ./examples/composed_pipeline

clean:
	$(GO) clean ./...
