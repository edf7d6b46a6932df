# Local targets mirror the CI jobs (.github/workflows/ci.yml) one to one,
# so `make <target>` reproduces exactly what CI runs.

GO ?= go

.PHONY: build test race stress vet fmt docs-check sweep bench-smoke perf-gate shard \
	shard-merge shard-demo worker-bin fleet-check fleet-demo nightly-sweep \
	nightly-trend cover fuzz serve-check ci

# The exact PR-gating sequence CI runs, as one local command. cover re-runs
# the covered packages with coverage instrumentation (a different build
# than test's, so the test cache cannot share them); CI pays nothing — the
# jobs run in parallel — and locally it adds ~1 minute to a multi-minute
# sequence.
ci: fmt vet docs-check build test race stress perf-gate cover serve-check fleet-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-checks the concurrent machinery: the shared streaming engine, both
# campaign classes built on it, and the fleet orchestrator. The -run
# filter selects the concurrency-exercising tests (worker determinism,
# cancellation, stream delivery, progress, pool scheduling, the straggler
# watchdog and checkpoint-resume/preemption supervision) and -short scales
# their fixtures down: race-instrumented Monte-Carlo runs cost ~100x, and
# the statistical-power campaigns add nothing to race coverage (plain
# `make test` still runs everything at full size).
race:
	$(GO) test -race -short -timeout 15m -run 'Engine|Deterministic|Cancel|Stream|Progress|Sweep|Scheduler|Serve|Monitor|Tee|Incremental|Watchdog|Preempt' \
		./internal/engine/... ./internal/core/... ./internal/beam/... ./internal/fleet/... \
		./internal/distrib/... ./internal/serve/... ./internal/monitor/...

# Repeats the timing-sensitive test families so a flake surfaces in review
# instead of in a later, unrelated change: the sweep service (Serve), the
# resident scheduler (Scheduler) and the golden-prefix resume oracle (a
# seeded tick sample under -short; plain `make test` checks every tick).
# -count=10 also defeats the test cache.
stress:
	$(GO) test -count=10 -run 'Serve|Scheduler' ./internal/serve/ ./internal/distrib/
	$(GO) test -short -count=10 -run 'TestResumeMatchesReplay' ./internal/bench/

# Runs every figure/ablation benchmark exactly once — a smoke test that the
# experiment index still executes, so engine regressions surface in CI.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Measures the fixed-seed perf suite and compares it against the committed
# baseline (BENCH_7.json) with the Mann-Whitney gate: a significant median
# slowdown beyond the margin fails the build. CI-noise-sized samples keep
# the job fast; raise -samples locally for a tighter comparison. The
# measured run lands in perf-ci.json (uploaded by CI for inspection).
perf-gate:
	$(GO) run ./cmd/phi-perf -baseline BENCH_7.json -check \
		-samples 6 -sample-time 60ms -margin 0.25 \
		-label ci -out perf-ci.json

vet:
	$(GO) vet ./...

# Fails (listing offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Documentation gates, enforced like any other test: (1) every internal
# package must carry a package comment — the godoc entry point a new
# reader lands on; (2) docs/api.md must mention every route string
# registered in internal/serve, so the API reference cannot silently
# drift behind the mux. Both checks derive their ground truth from the
# source (go list, the HandleFunc table), never from a hand-kept list.
docs-check:
	@bad=""; for pkg in $$($(GO) list ./internal/...); do \
		dir=$${pkg#phirel/}; \
		grep -q '^// Package ' $$dir/*.go || bad="$$bad $$dir"; \
	done; \
	if [ -n "$$bad" ]; then echo "internal packages missing a package comment:$$bad"; exit 1; fi
	@routes=$$(grep -o 'HandleFunc("[A-Z]* [^"]*"' internal/serve/*.go | sed 's/.*HandleFunc("//; s/"$$//'); \
	[ -n "$$routes" ] || { echo "docs-check: found no registered routes in internal/serve"; exit 1; }; \
	missing=$$(echo "$$routes" | while read -r r; do \
		grep -qF -- "$$r" docs/api.md || printf ' [%s]' "$$r"; \
	done); \
	if [ -n "$$missing" ]; then echo "docs/api.md is missing routes:$$missing"; exit 1; fi; \
	echo "docs-check: all internal packages documented; docs/api.md covers every serve route"

# One set of quick-sweep parameters shared by the monolithic sweep job and
# the sharded matrix legs, so their artifacts are byte-comparable.
SWEEP_FLAGS ?= -n 200 -beam-runs 1000 -beam-ecc-ablation -workers 8

# Quick-scale fleet sweep covering both experiment classes: injection cells
# (all benchmarks × all four fault models) plus beam cells (beam suite ×
# ECC ablation), exported as the same JSON artifact CI uploads.
sweep:
	$(GO) run ./cmd/phi-bench -sweep $(SWEEP_FLAGS) -out sweep.json

# One shard of the quick sweep (SHARD=k/K, 1-based), e.g.
# `make shard SHARD=2/3` — the command each leg of the CI shard matrix runs.
shard:
	$(GO) run ./cmd/phi-bench -sweep $(SWEEP_FLAGS) -shard $(SHARD) -out sweep-shard-$(subst /,-of-,$(SHARD)).json

# Folds every sweep-shard-*.json into sweep-merged.json and byte-compares it
# against the monolithic artifact — the check the CI shard-merge job runs.
shard-merge:
	$(GO) run ./cmd/phi-merge -out sweep-merged.json sweep-shard-*.json
	cmp sweep.json sweep-merged.json
	@echo "shard merge is byte-identical to the monolithic sweep"

# Runs the hand-rolled sharding loop locally end to end: monolithic quick
# sweep, three shards, merge, byte-diff. fleet-demo does the same through
# the phi-fleet driver and is what CI now runs; this stays as the
# spelled-out form of what the driver automates.
shard-demo:
	rm -f sweep-shard-*.json sweep-merged.json
	$(MAKE) sweep
	$(MAKE) shard SHARD=1/3
	$(MAKE) shard SHARD=2/3
	$(MAKE) shard SHARD=3/3
	$(MAKE) shard-merge

# Coverage floors (percent of statements) for the packages that gate the
# correctness of merged artifacts and their serving: internal/distrib
# (supervision, launchers, partial validation), internal/fleet (sharding
# algebra, merge validation, artifact readers), internal/serve (the
# sweep service's cache/coalesce/streaming contract, now including the
# partial-overlap planner, eviction, and stats), and internal/monitor
# (the online FIT/MTBF estimator whose final snapshot must equal the
# post-hoc fit exactly). The floors sit below current coverage
# (~82% / ~89% / ~88% / ~97%; the kubectl exec paths need a live
# cluster) so they catch erosion, not noise. CI's cover job runs this and
# uploads the HTML reports as artifacts.
DISTRIB_COVER_FLOOR ?= 75
FLEET_COVER_FLOOR ?= 85
SERVE_COVER_FLOOR ?= 84
MONITOR_COVER_FLOOR ?= 90

cover:
	$(GO) test -coverprofile=cover-distrib.out ./internal/distrib/
	$(GO) test -coverprofile=cover-fleet.out ./internal/fleet/
	$(GO) test -coverprofile=cover-serve.out ./internal/serve/
	$(GO) test -coverprofile=cover-monitor.out ./internal/monitor/
	$(GO) tool cover -html=cover-distrib.out -o cover-distrib.html
	$(GO) tool cover -html=cover-fleet.out -o cover-fleet.html
	$(GO) tool cover -html=cover-serve.out -o cover-serve.html
	$(GO) tool cover -html=cover-monitor.out -o cover-monitor.html
	@for pf in cover-distrib.out:$(DISTRIB_COVER_FLOOR) cover-fleet.out:$(FLEET_COVER_FLOOR) cover-serve.out:$(SERVE_COVER_FLOOR) cover-monitor.out:$(MONITOR_COVER_FLOOR); do \
		profile=$${pf%%:*}; floor=$${pf##*:}; \
		total=$$($(GO) tool cover -func=$$profile | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		if awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t+0 < f+0) }'; then \
			echo "$$profile: coverage $$total% fell below the $$floor% floor"; exit 1; \
		fi; \
		echo "$$profile: coverage $$total% (floor $$floor%)"; \
	done

# Mutational fuzzing of the fleet artifact readers beyond their committed
# seed corpora (testdata/fuzz, replayed by plain `make test`). One target
# per run: `go test -fuzz` refuses multi-target patterns.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz '^FuzzReadSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz '^FuzzReadShardFile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime $(FUZZTIME)

# Load-smokes the sweep service end to end through httptest: overlapping
# submissions of duplicate specs against a live serve.Server must coalesce
# and cache-hit (exactly one computation per distinct spec) and every
# request for the same sweep id must return byte-identical artifact bytes.
# The overlap scenarios drive the partial-overlap cache: an N-trial sweep
# followed by the same question at 2N must be admitted as a partial that
# computes exactly the missing N trials and folds to the monolithic bytes,
# and the LRU size bound must evict atomically (evicted ids 404).
# -count=1 defeats the test cache so CI always exercises the live path.
serve-check:
	$(GO) test -count=1 -v -run 'TestServeLoadSmoke|TestServeCacheHitByteIdentical|TestServeCoalesce|TestServePersistentCache|TestServeOverlapPartial|TestServeOverlapProperty|TestServeEviction' \
		./internal/serve/

# Shard workers are exec'd as subprocesses, so the fleet targets build a
# real phi-bench binary first instead of racing N concurrent `go run`
# compiles.
worker-bin:
	$(GO) build -o bin/phi-bench ./cmd/phi-bench

# Byte-diffs a phi-fleet fan-out against an existing monolithic sweep.json.
# The CI fleet-demo job downloads sweep.json from the sweep job instead of
# recomputing it; `make fleet-demo` produces it locally first.
FLEET_SHARDS ?= 3
fleet-check:
	rm -rf sweep-fleet.json sweep-cli-merged.json fleet-work
	$(MAKE) worker-bin
	$(GO) run ./cmd/phi-fleet -shards $(FLEET_SHARDS) $(SWEEP_FLAGS) \
		-worker-cmd bin/phi-bench -dir fleet-work -retries 1 -quiet -out sweep-fleet.json
	cmp sweep.json sweep-fleet.json
	$(GO) run ./cmd/phi-merge -out sweep-cli-merged.json 'fleet-work/sweep-shard-*.json'
	cmp sweep.json sweep-cli-merged.json
	@echo "phi-fleet $(FLEET_SHARDS)-way fan-out and the phi-merge CLI refold are byte-identical to the monolithic sweep"

# 3-way local fan-out through the phi-fleet driver, byte-diffed against the
# monolithic quick-sweep artifact — the full local form of the CI
# sweep + fleet-demo pair (which replaced the hand-rolled shard matrix +
# shard-merge shell steps).
fleet-demo:
	rm -f sweep.json
	$(MAKE) sweep
	$(MAKE) fleet-check

# Paper-grade scheduled sweep (nightly-sweep.yml): N >= 10,000 injections
# per cell fanned 10 ways, then the same seed fanned 5 ways, and the two
# merged artifacts byte-diffed — shard-count invariance proven at the scale
# the paper's campaigns actually run at. NIGHTLY_SEED varies per run (the
# workflow derives it from the date), so shard-count invariance is proven
# on a fresh seed every night instead of one frozen seed forever; both
# fan-outs share the seed so the byte-diff still holds. Elastic execution
# (checkpointing) is armed on the 10-way leg so the resume machinery runs
# nightly at paper scale, not just in unit tests.
NIGHTLY_SEED ?= 1701
NIGHTLY_FLAGS ?= -n 10000 -beam-runs 10000 -beam-ecc-ablation -workers 2 -campaign-seed $(NIGHTLY_SEED)
nightly-sweep:
	rm -rf sweep-nightly.json sweep-nightly-5way.json nightly-10 nightly-5
	$(MAKE) worker-bin
	$(GO) run ./cmd/phi-fleet -shards 10 $(NIGHTLY_FLAGS) -worker-cmd bin/phi-bench \
		-dir nightly-10 -retries 2 -checkpoint-every 2000 -quiet -out sweep-nightly.json
	$(GO) run ./cmd/phi-fleet -shards 5 $(NIGHTLY_FLAGS) -worker-cmd bin/phi-bench \
		-dir nightly-5 -retries 2 -quiet -out sweep-nightly-5way.json
	cmp sweep-nightly.json sweep-nightly-5way.json
	@echo "10-way and 5-way paper-grade artifacts are byte-identical (seed $(NIGHTLY_SEED))"
	$(MAKE) nightly-trend

# CI-width monitored sweep on the night's seed: a quick-scale pass with the
# resident FIT/MTBF monitor attached, emitting monitor-nightly.jsonl (rolling
# snapshots, final line = exact post-hoc estimate). The workflow uploads it
# every night, so the reliability estimates accumulate into a seed-varied
# trend series instead of a single frozen number.
nightly-trend:
	rm -f sweep-trend.json monitor-nightly.jsonl
	$(GO) run ./cmd/phi-bench -sweep $(SWEEP_FLAGS) -campaign-seed $(NIGHTLY_SEED) \
		-monitor-jsonl monitor-nightly.jsonl -out sweep-trend.json
	@echo "CI-width trend artifact for seed $(NIGHTLY_SEED): sweep-trend.json + monitor-nightly.jsonl"
