GO ?= go

## Hot-path benchmark selection and baseline artifact for bench-baseline /
## bench-check. BENCH_OUT lets a PR snapshot its own baseline (e.g.
## `make bench-baseline BENCH_OUT=BENCH_pr7.json`) without touching the
## committed one; BENCH_BASE is what bench-check gates against.
BENCH_PATTERN = KernelScheduleRun|ChannelSend|MediumTransmit|FilterAdd|FilterTest|PeerVectorCovers|VLFL|BenchmarkNeighbors|BenchmarkBroadcast|BenchmarkBeaconRound
BENCH_PKGS = ./internal/sim/ ./internal/network/ ./internal/bloom/
BENCH_OUT ?= BENCH_seed.json
BENCH_BASE ?= BENCH_pr8.json

.PHONY: tier1 vet build lint conformance test race cellbench-test short bench race-runner sweep-smoke chaos-smoke bench-baseline bench-check fuzz-smoke resume-smoke resilience-smoke loc

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

## conformance: the universal scheme-contract suite — the registry tests
## plus the property table of internal/strategy/conformance run against
## every registered scheme. TestConformanceSelfTest re-runs the table over
## a deliberately broken scheme and requires it to fail.
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
## breaker-state-machine, retry-budget and degraded-serve invariants,
## byte-identical across -parallel 1/4/8, and byte-identical across a
## mid-campaign SIGKILL resume (the harness-kill self-test).
resilience-smoke:
	$(GO) run ./cmd/grococa-chaos -campaign breaker-flap -seeds 3 -parallel 8 > .resil-smoke-p8.txt
	$(GO) run ./cmd/grococa-chaos -campaign breaker-flap -seeds 3 -parallel 4 > .resil-smoke-p4.txt
	$(GO) run ./cmd/grococa-chaos -campaign breaker-flap -seeds 3 -parallel 1 > .resil-smoke-p1.txt
	cmp .resil-smoke-p1.txt .resil-smoke-p4.txt
	cmp .resil-smoke-p1.txt .resil-smoke-p8.txt
	rm -f .resil-smoke-p1.txt .resil-smoke-p4.txt .resil-smoke-p8.txt
	rm -rf .resil-smoke-kill
	$(GO) run ./cmd/grococa-chaos -selftest-kill -killdir .resil-smoke-kill -campaign breaker-flap -seeds 3 -parallel 1
	rm -rf .resil-smoke-kill
	@echo "resilience-smoke ok: breaker campaign clean, worker-count- and kill-resume-identical"

## bench-baseline: regenerate $(BENCH_OUT) (default BENCH_seed.json), the
## committed hot-path baseline — kernel dispatch, FCFS channel churn,
## medium transmission and spatial-index reachability (grid vs brute at
## N=100/1k/10k), bloom-filter ops — as ops/sec and allocs/op, so PRs can
## review performance drift.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/grococa-benchjson > $(BENCH_OUT)
	@echo "bench-baseline: wrote $(BENCH_OUT)"

## bench-check: rerun the hot-path benchmarks and gate them against the
## committed $(BENCH_BASE): any benchmark whose ops/sec dropped more than
## 30% fails. Benchmarks on only one side are informational.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/grococa-benchjson -compare $(BENCH_BASE) -max-regress 0.30

## fuzz-smoke: short native-fuzzing passes, one run per target (go test
## -fuzz takes one target at a time): the spatial index's grid-vs-brute-
## force oracle under fuzzer-chosen geometry (NaN, infinities,
## cell-boundary and int32-overflow coordinates), the resume journal's
## loader on arbitrary images (no panic, exactly the records before the
## first torn or bad-digest frame kept, an append after them kept too),
## then the VLFL signature decoder on arbitrary peer bytes (no panic, round
## trip, VLFLBits equal to the encoder's bit count).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzGridQuery -fuzztime 30s ./internal/geo/
	$(GO) test -run '^$$' -fuzz FuzzOpenJournal -fuzztime 30s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzDecodeVLFL -fuzztime 30s ./internal/bloom/

## resume-smoke: crash-resume proven end to end with real SIGKILLs.
## Leg 1: a sweep is run to a golden CSV, rerun with journaling and
## SIGKILLed mid-flight, then resumed — the resumed CSV must be
## byte-identical to the golden. Leg 2: the chaos harness-kill self-test
## (SIGKILL a child mid-campaign-matrix, resume, byte-compare the report
## against a never-killed run). Artifacts stay in .resume-smoke on failure.
resume-smoke:
	rm -rf .resume-smoke && mkdir -p .resume-smoke
	$(GO) build -o .resume-smoke/grococa-bench ./cmd/grococa-bench
	.resume-smoke/grococa-bench -exp clients -tiny -reps 4 -q -csv > .resume-smoke/golden.csv
	-timeout -s KILL 2 .resume-smoke/grococa-bench -exp clients -tiny -reps 4 -q -csv -resume .resume-smoke/journal > /dev/null 2>&1
	test -s .resume-smoke/journal/journal.gckj
	.resume-smoke/grococa-bench -exp clients -tiny -reps 4 -q -csv -resume .resume-smoke/journal > .resume-smoke/resumed.csv
	cmp .resume-smoke/golden.csv .resume-smoke/resumed.csv
	$(GO) run ./cmd/grococa-chaos -selftest-kill -killdir .resume-smoke/chaos-kill -campaign outage-storm -scheme grococa -seeds 3 -parallel 1
	rm -rf .resume-smoke
	@echo "resume-smoke ok: SIGKILLed sweep and campaign matrix resumed byte-identical"
