GO ?= go

## Hot-path benchmark selection for bench-baseline / bench-check.
## BENCH_OUT lets a PR snapshot its own baseline (e.g. `make bench-baseline
## BENCH_OUT=BENCH_pr7.json`) without touching the committed one. BASE is
## the revision bench-check and cellbench-ab compare the working tree
## against.
BENCH_PATTERN = KernelScheduleRun|ChannelSend|MediumTransmit|FilterAdd|FilterTest|PeerVectorCovers|PeerVectorAddSignature|CountingFilterSignature|CountingFilterDelta|VLFL|BenchmarkBroadcast|BenchmarkBeaconRound|BenchmarkLRUHit|BenchmarkLRUAdmit|BenchmarkZipfRank|BenchmarkSampleQuantile|BenchmarkServerLinkRoundTrip
BENCH_PKGS = ./internal/sim/ ./internal/network/ ./internal/bloom/ ./internal/cache/ ./internal/workload/ ./internal/stats/
BENCH_OUT ?= BENCH_seed.json
BASE ?= HEAD

.PHONY: tier1 vet build lint conformance test race cellbench-test short bench race-runner sweep-smoke chaos-smoke bench-baseline bench-check cellbench-ab fuzz-smoke resilience-smoke loc

## tier1: the gate every change must pass — vet, build, the contract-lint
## suite, the scheme-conformance suite, tests with the race detector, and
## the whole-cell benchmark's own vet and tests.
tier1: vet build lint conformance race cellbench-test

vet:
	$(GO) vet ./...

## lint: the contract-analysis suite — determinism analyzers plus the
## type-aware hot-path contract analyzer (see DESIGN.md "Static
## analysis"). Every diagnostic is a finding, and zero findings are
## required. The grococa-lint tests prove the contract analyzer still
## catches an injected defect.
lint:
	$(GO) run ./cmd/grococa-lint ./...

## conformance: the universal scheme-contract suite — the scheme-table
## tests plus the property table of internal/strategy/conformance run
## against every listed scheme. TestConformanceSelfTest re-runs the table
## over a deliberately broken scheme and requires it to fail.
conformance:
	$(GO) test -count=1 ./internal/strategy/...

build:
	$(GO) build ./...

## loc: the non-test Go line count ROADMAP.md tracks — every tracked .go
## file except _test.go files, cellbench/ (its own module) and testdata/.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^cellbench/' -e '/testdata/' | xargs cat | wc -l

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## cellbench-test: cellbench/ is its own Go module, so ./... above never
## reaches it; vet and test it in place.
cellbench-test:
	$(GO) -C cellbench vet ./... && $(GO) -C cellbench test ./...

short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

## race-runner: focused race run on the parallel sweep engine and the
## simulation kernel it fans out.
race-runner:
	$(GO) test -race ./internal/experiments/... ./internal/sim/...

## sweep-smoke: one tiny parallel replicated sweep end-to-end; the CSV must
## be byte-identical across worker counts.
sweep-smoke:
	$(GO) run ./cmd/grococa-bench -exp skew -tiny -reps 3 -parallel 8 -q -csv > .sweep-smoke-p8.csv
	$(GO) run ./cmd/grococa-bench -exp skew -tiny -reps 3 -parallel 1 -q -csv > .sweep-smoke-p1.csv
	cmp .sweep-smoke-p1.csv .sweep-smoke-p8.csv
	rm -f .sweep-smoke-p1.csv .sweep-smoke-p8.csv
	@echo "sweep-smoke ok: replicated sweep byte-identical across worker counts"

## chaos-smoke: a short chaos campaign matrix under the invariant auditor.
## Two legs: (1) the default campaigns must be violation-free, (2) the
## report must be byte-identical across worker counts. Violations print
## their repro command in the log. The must-fail leg — the -selftest run
## (a deliberately seeded TTL-corruption bug) must exit non-zero — is the
## ordinary Go test TestRunSelfTestFails in cmd/grococa-chaos, run by
## `make race`.
chaos-smoke:
	$(GO) run ./cmd/grococa-chaos -seeds 2 -parallel 4 > .chaos-smoke-p4.txt
	$(GO) run ./cmd/grococa-chaos -seeds 2 -parallel 1 > .chaos-smoke-p1.txt
	cmp .chaos-smoke-p1.txt .chaos-smoke-p4.txt
	rm -f .chaos-smoke-p1.txt .chaos-smoke-p4.txt
	@echo "chaos-smoke ok: campaigns clean, output worker-count-identical"

## resilience-smoke: the degraded-mode smoke — the breaker-flap campaign
## (full resilience policy: budgets, jittered backoff, breaker, hedging,
## serve-stale) must be violation-free under the auditor's
## breaker-state-machine, retry-budget and degraded-serve invariants, and
## byte-identical across -parallel 1/4/8. Resuming a breaker-flap matrix
## from every cut of its journal is TestResumeFromEveryJournalCut in
## cmd/grococa-chaos, run by `make race`.
resilience-smoke:
	$(GO) run ./cmd/grococa-chaos -campaign breaker-flap -seeds 3 -parallel 8 > .resil-smoke-p8.txt
	$(GO) run ./cmd/grococa-chaos -campaign breaker-flap -seeds 3 -parallel 4 > .resil-smoke-p4.txt
	$(GO) run ./cmd/grococa-chaos -campaign breaker-flap -seeds 3 -parallel 1 > .resil-smoke-p1.txt
	cmp .resil-smoke-p1.txt .resil-smoke-p4.txt
	cmp .resil-smoke-p1.txt .resil-smoke-p8.txt
	rm -f .resil-smoke-p1.txt .resil-smoke-p4.txt .resil-smoke-p8.txt
	@echo "resilience-smoke ok: breaker campaign clean and worker-count-identical"

## bench-baseline: regenerate $(BENCH_OUT) (default BENCH_seed.json), the
## committed hot-path baseline — kernel dispatch, FCFS channel churn,
## medium transmission and spatial-index reachability (grid vs brute at
## N=100/1k/10k), the MSS link round trip, bloom-filter ops and signature
## maintenance, the cache, the Zipf item draw and the latency quantiles —
## as ops/sec and allocs/op, so PRs can review performance drift.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/grococa-benchjson > $(BENCH_OUT)
	@echo "bench-baseline: wrote $(BENCH_OUT)"

## bench-check: the same-host hot-path gate. BASE is unpacked with git
## archive under .bench_build/ab-<sha>/, as cellbench-ab does; the hot-path
## benchmarks then run 5 times in each tree, alternating trees and
## flipping which goes first every round, and any benchmark whose median
## ops/sec in the working tree is more than 30% below its median in the
## base tree fails. Benchmarks on only one side are informational.
bench-check:
	@sha=$$(git rev-parse --verify '$(BASE)^{commit}') && dir=.bench_build/ab-$$(printf %.12s $$sha) && \
	if [ ! -f $$dir/go.mod ]; then mkdir -p $$dir && git archive $$sha | tar -x -C $$dir; fi && \
	rm -f .bench_build/micro-base.txt .bench_build/micro-work.txt && \
	for i in 1 2 3 4 5; do \
		order="$$dir ."; if [ $$((i % 2)) = 0 ]; then order=". $$dir"; fi; \
		for d in $$order; do \
			side=base; if [ $$d = . ]; then side=work; fi; \
			echo "bench-check: round $$i/5, $$side tree" >&2; \
			(cd $$d && $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS)) >> .bench_build/micro-$$side.txt || exit 1; \
		done; \
	done && \
	$(GO) run ./cmd/grococa-benchjson -compare .bench_build/micro-base.txt -max-regress 0.30 < .bench_build/micro-work.txt

## cellbench-ab: the whole-run A/B of the working tree against BASE —
## PAIRS pairs of cellbench runs of WORKLOAD at SEED, alternating which
## side runs first, printed as JSON: each end-to-end metric's per-side
## median and quartiles and the working tree's wins. BASE is unpacked
## with git archive under .bench_build/.
WORKLOAD ?= sc-baseline
SEED ?= 1
PAIRS ?= 10
cellbench-ab:
	@$(GO) run ./cmd/grococa-ab -base $(BASE) -workload $(WORKLOAD) -seed $(SEED) -pairs $(PAIRS)

## fuzz-smoke: short native-fuzzing passes, one run per target (go test
## -fuzz takes one target at a time): the spatial index's grid-vs-brute-
## force oracle under fuzzer-chosen geometry (NaN, infinities,
## cell-boundary and int32-overflow coordinates), the resume journal's
## loader on arbitrary images (no panic, exactly the records before the
## first torn or bad-digest frame kept, an append after them kept too),
## then the VLFL signature decoder on arbitrary peer bytes (no panic, round
## trip, VLFLBits equal to the encoder's bit count), then the Zipf
## guide-table draw against a binary search of the CDF, then the
## configuration gate (whenever Config.Validate accepts fuzzer-chosen float
## and duration fields, NaN and infinities included, core.New builds the
## configuration without an error or a panic).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzGridQuery -fuzztime 30s ./internal/geo/
	$(GO) test -run '^$$' -fuzz FuzzOpenJournal -fuzztime 30s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzDecodeVLFL -fuzztime 30s ./internal/bloom/
	$(GO) test -run '^$$' -fuzz FuzzZipfRank -fuzztime 30s ./internal/workload/
	$(GO) test -run '^$$' -fuzz FuzzConfigValidate -fuzztime 30s ./internal/core/
