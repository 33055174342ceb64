# Build/test entry points. `make ci` is the gate every PR must pass:
# formatting, vet, a full build, a vet of the nested bench module, the
# full test suite (which includes the
# telemetry-enabled golden determinism check and the AllocsPerRun == 0
# collector guard), a race-checked run of the concurrent execution
# stack (internal/sim + internal/runner + internal/telemetry +
# internal/replay + internal/fault) and of the machine recycling it
# shares across runs (internal/cache + internal/replacement +
# internal/recycle), a fuzz smoke of the ranked LRU (policy-check), the
# chaos suite (fault matrix +
# crash-recovery property tests, race-enabled — including the SIGKILL
# restart-and-resume property test against a real pinted process), the
# race-enabled pinted service smoke (serve-check), and the paper
# report's run-to-run determinism (determinism-check).

GO ?= go

# `make bench` knobs: raise BENCHTIME/BENCHCOUNT for stable numbers
# (e.g. BENCHTIME=2s BENCHCOUNT=6 for a benchstat-worthy sample).
BENCHTIME ?= 1x
BENCHCOUNT ?= 1
BENCHOUT ?= BENCH_$(shell date +%F).json
# Baseline for the regression gate: the newest committed perf-trajectory
# entry that isn't the file this run writes. BENCHTOL is deliberately
# generous — single-shot wall-clock numbers can swing 2x against a
# quiet-window baseline on a shared host; tighten it when running with
# BENCHTIME=2s BENCHCOUNT=6.
BENCHBASE ?= $(shell git ls-files 'BENCH_*.json' | grep -v "^$(BENCHOUT)$$" | sort | tail -1)
BENCHTOL ?= 1.0

.PHONY: ci fmt vet build bench-build test race policy-check replay-check sample-check chaos serve-check store-check determinism-check bench bench-smoke

ci: fmt vet build bench-build test race policy-check chaos replay-check sample-check serve-check store-check determinism-check bench-smoke

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# vet also keeps the metrics tree single: only internal/telemetry may
# publish expvars (it serves every group under the one "pinte" key).
vet:
	$(GO) vet ./...
	@stray=$$(grep -rlE --include='*.go' --exclude='*_test.go' \
		'expvar\.(Publish|NewMap|NewInt)\(' . | grep -v '^\./internal/telemetry/'); \
	if [ -n "$$stray" ]; then \
		echo "expvar published outside internal/telemetry:"; echo "$$stray"; exit 1; \
	fi

build:
	$(GO) build ./...

# The benchmark program is its own module (repro/bench), which the root
# build skips: vet it so an internal API change that breaks it fails here.
bench-build:
	cd bench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/sim/... ./internal/runner/... \
		./internal/telemetry/... ./internal/replay/... ./internal/fault/... \
		./internal/cache/... ./internal/replacement/... ./internal/recycle/...

# Replacement-policy gate: 10 s of FuzzLRURanks, the 16-bit per-set LRU
# ranks against a global-clock reference LRU over arbitrary fill/hit/
# promote/invalidate sequences, with bursts that force sets to renumber
# (Victim, StackEnd, AtStackEnd and HitPosition must agree after every
# step).
policy-check:
	$(GO) test -run '^$$' -fuzz FuzzLRURanks -fuzztime 10s -parallel 2 ./internal/replacement

# Chaos suite: the fault-injection matrix, the randomized crash-recovery
# property tests, the fuzzed corruption contract of the result store's
# segment scan (FuzzSegmentScan's seeds) and the durability tests (a
# result is stored before it is streamed; a finished stream whose
# results were evicted answers 410), race-enabled. Asserts every
# injected fault yields a clean typed error or a correct degraded result
# — never a corrupt store or a silently wrong answer. Packages run one at
# a time (-p 1): several chaos tests hold a run to a wall-clock deadline
# sized for one race-instrumented simulation, and two CPU-bound
# race-enabled test binaries sharing a small host would each get a
# fraction of the CPU that deadline assumes.
chaos:
	$(GO) test -race -count=1 -p 1 \
		-run 'Chaos|Watchdog|Backoff|Compact|Corrupt|Evict|SourceSite|FuzzSegmentScan|StoredBefore|StreamGone|TestFault|TestParse|TestApply|TornTail' \
		./internal/fault/... ./internal/runner/... ./internal/replay/... \
		./internal/server/... ./internal/store/...

# Service smoke gate, race-enabled: the pinted lifecycle/admission/
# fairness/drain suite, including two concurrent tiny campaigns from
# different tenants completing fairly and a drain-checkpoint-resume
# round trip.
serve-check:
	$(GO) test -race -count=1 -run 'TestServe|TestQuota|TestSweepSpec' \
		./internal/server/...

# Replay-cache and fan-out determinism gate: cached runs must be
# byte-identical to generated runs and to the committed goldens, and
# fan-out groups (shared-front digest points alongside per-run points)
# must be byte-identical to the sequential per-run path at both the
# simulator and campaign level. Two fuzz smokes close the gate: 10 s of
# the arena codec's round trip (FuzzStreamRoundTrip: arbitrary record
# sequences read back through NextBatch, Next and Skip must be exact)
# and 20 s of the campaign-path differential oracle (FuzzCampaignPaths:
# per-run, replay, fan-out and warm-store results over generated
# configs must be byte-identical).
replay-check:
	$(GO) test -count=1 -run 'TestReplayEquivalence|TestReplayMatchesGoldens|TestFanout' \
		./internal/sim ./internal/runner
	$(GO) test -run '^$$' -fuzz FuzzStreamRoundTrip -fuzztime 10s -parallel 2 ./internal/replay
	$(GO) test -run '^$$' -fuzz FuzzCampaignPaths -fuzztime 20s -parallel 2 ./internal/runner

# Phase-aware sampling gate, race-enabled: the clusterer's determinism
# and selection tests, the sampled executor's full-window byte-identity
# anchor, the phased-workload accuracy check (>= 5x fewer detailed
# instructions with IPC / LLC MPKI / realized P_Induce inside the
# plan's stated error bounds against the full-ROI run), the O(1) replay
# seek, and the campaign-level savings and fallback tests.
sample-check:
	$(GO) test -race -count=1 -run 'TestSample|TestAnalyze|TestReplayerSkip|TestChaosSampled' \
		./internal/phase ./internal/sim ./internal/runner ./internal/replay

# Result-store gate, race-enabled: the content-addressed store's full
# suite (durability, fingerprint isolation, GC, single-flight) plus its
# campaign/service integration tests; the committed simulator
# fingerprint must match the tree (a drifted simulator with a stale
# fingerprint would poison every shared store); the store-verify
# integrity gate replays the golden matrix live; and the warm-restart
# property — a store-backed rerun is served without simulating — is
# exercised via one benchmark iteration (the bench fails unless
# FromStore == 12 with byte-identical results).
store-check:
	$(GO) test -race -count=1 ./internal/store/...
	$(GO) test -race -count=1 -run 'TestStore|TestMemoCounters|TestRunnerStore|TestServeDuplicateTenants|TestServeStoreAcrossRestart' \
		./internal/runner ./internal/expt ./internal/server
	$(GO) run ./cmd/simfp -root . -check
	$(GO) run ./cmd/pintetrace store-verify -goldens internal/sim/testdata
	$(GO) test -bench 'BenchmarkSweepWarmRestart' -benchtime 1x -run '^$$' .

# Paper-report determinism gate: `pintereport -exp all -scale tiny` runs
# twice with the default worker count and once with -workers 1, and the
# three outputs must be byte-identical once mask_timing.awk has masked
# the wall-clock text (the completion lines and Table I's timing columns
# and timing notes). The report runs every paper campaign with fan-out
# on, so this also checks the fan-out executor end to end.
determinism-check:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/pintereport" ./cmd/pintereport; \
	for run in a b; do "$$dir/pintereport" -exp all -scale tiny > "$$dir/$$run.txt"; done; \
	"$$dir/pintereport" -exp all -scale tiny -workers 1 > "$$dir/w1.txt"; \
	for run in a b w1; do awk -f cmd/pintereport/mask_timing.awk "$$dir/$$run.txt" > "$$dir/$$run.masked"; done; \
	diff -u "$$dir/a.masked" "$$dir/b.masked"; \
	diff -u "$$dir/a.masked" "$$dir/w1.masked"; \
	echo "determinism-check: 3 tiny-scale reports identical after masking"

# One pass over every benchmark as a compile-and-run smoke; keeps the
# hot-path benchmarks building and non-panicking without the cost of a
# full measurement.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' \
		. ./internal/cache ./internal/trace ./internal/rng ./internal/replay

# Full benchmark run, archived as a perf-trajectory entry. Raw output
# streams to the terminal; the parsed results land in $(BENCHOUT). When
# an earlier committed BENCH_*.json exists, benchjson also prints a
# speedup table against it and fails the target on a regression beyond
# BENCHTOL.
bench:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) \
		-run '^$$' . ./internal/cache ./internal/trace ./internal/rng ./internal/replay | \
		$(GO) run ./cmd/benchjson -out $(BENCHOUT) \
		-commit $$(git rev-parse --short HEAD 2>/dev/null || echo unknown) \
		$(if $(BENCHBASE),-baseline $(BENCHBASE) -tolerance $(BENCHTOL))
