# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short pipebench-test bench bench-json bench-diff bench-multicore loc check lint smuvet smuvet-determinism fmt-check bench-smoke fuzz-smoke chaos crash tier-soak soak-1m external-smoke report experiments ingest-smoke ingest-json clean

all: build vet test

build:
	$(GO) build ./...

# pipebench is its own module, so the root `go vet ./...` does not reach it.
vet:
	$(GO) vet ./...
	cd pipebench && $(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# pipebench (the end-to-end benchmark behind BENCHMARK.json) is its own Go
# module, so `go test ./...` at the root does not reach its self-tests:
# metric declarations vs BENCHMARK.json, percentile edge cases, and a smoke
# run of every workload.
pipebench-test:
	cd pipebench && $(GO) test ./...

bench:
	$(GO) test -bench . -benchmem .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# One-iteration benchmark pass: catches bit-rot in benchmark code (and the
# decode-count assertions inside it) without paying for real measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Machine-readable benchmark manifest: one-iteration measurements for every
# benchmark, keyed "<pkg>.<Benchmark>" → ns/op, B/op, allocs/op. CI uploads
# the result as an artifact so a branch's perf trajectory is one download
# away. One iteration is smoke-grade — it anchors allocation counts exactly
# but ns/op only roughly; use `make bench` on a quiet machine for real
# timings.
BENCH_JSON ?= BENCH_8.json
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./... | $(GO) run ./cmd/benchjson -o $(BENCH_JSON)

# Perf-regression gate: rerun the one-iteration benchmark pass and diff it
# against the committed anchor ($(BENCH_JSON)). Fails on any metric beyond
# tolerance — loose on ns/op (noisy at one iteration, ignored below 1 ms),
# tight on bytes/op and allocs/op (deterministic). Writes the fresh manifest
# to $(BENCH_DIFF_OUT) so CI can publish it next to the verdict.
BENCH_DIFF_OUT ?= bench-current.json
bench-diff:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./... | \
		$(GO) run ./cmd/benchjson -o $(BENCH_DIFF_OUT) -diff $(BENCH_JSON)

# Multi-core scaling gate: times both analysis passes (BuildPrep plus Run,
# each decoding the encoded in-memory Shards it reads) at N shards against
# one shard and (on >= 4 cores) asserts a >= 2x speedup. On smaller machines
# the ratio is logged but not enforced.
bench-multicore:
	$(GO) test -run TestMultiCoreSpeedup -count=1 -v ./internal/core

# Net production Go lines (non-test .go files outside testdata) per package,
# with a total for the root module and for pipebench, which it only reads.
# The "least code" number ROADMAP tracks; CI prints it without gating on it.
loc:
	@./scripts/loc.sh

# Ingest load test: 1000 concurrent agents replayed against an in-process
# WAL-backed collector through the real retry/spool machinery; fails on any
# conservation error or a samples/sec below the floor. ingest-json writes the
# committed throughput anchor (INGEST_7.json).
INGEST_JSON ?= INGEST_7.json
INGEST_MIN_RATE ?= 5000
ingest-smoke:
	$(GO) run ./cmd/loadgen -agents 1000 -batches 6 -batch 24 -wal -min-rate $(INGEST_MIN_RATE) -out ingest-current.json

ingest-json:
	$(GO) run ./cmd/loadgen -agents 1000 -batches 6 -batch 24 -wal -min-rate $(INGEST_MIN_RATE) -out $(INGEST_JSON)

# Short fuzz pass over every fuzz target: catches decoder panics and
# round-trip regressions without a dedicated fuzzing farm.
FUZZTIME ?= 10s
fuzz-smoke:
	for t in FuzzDecodeSample FuzzDecodeSampleMatchesReference FuzzUnmarshalJSONSample; do \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) ./internal/trace || exit 1; \
	done
	for t in FuzzDecodeHello FuzzDecodeBatch FuzzReadFrame; do \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) ./internal/proto || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzReadWALRecord$$' -fuzztime $(FUZZTIME) ./internal/wal || exit 1

# The repo's own multichecker, seven analyzers: aliasret, closeerr,
# commitpair, determinism, guardedby, lockorder, shardmerge. See
# DESIGN.md "Static analysis" for what each analyzer enforces and the
# //smuvet:allow suppression syntax (including the stale-allow sweep).
smuvet:
	$(GO) run ./cmd/smuvet ./...

# Byte-stability gate for smuvet's machine-readable output: -sarif must
# produce identical bytes across runs over an identical tree, so CI
# artifacts can be diffed.
smuvet-determinism:
	./scripts/smuvet-determinism.sh

# Third-party linters are version-pinned and fetched on demand, so they only
# run where the network is available (CI sets LINT_THIRD_PARTY=1); the
# in-tree checks always run.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3
lint: fmt-check vet smuvet
ifeq ($(LINT_THIRD_PARTY),1)
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...
endif

# Chaos soak: agents push batches through every fault mix under the race
# detector, asserting exactly-once delivery end to end.
chaos:
	$(GO) test -race -run TestChaosSoak -count=1 ./internal/faultnet

# Kill-restart soak: the collector is crashed at every durability crash
# point (torn WAL append, pre-fsync, pre-sink, pre-ack) and cold-started
# from its WAL, agents are killed and rebuilt from their disk spools, and
# exactly-once delivery is asserted across the restarts, under -race.
crash:
	$(GO) test -race -run TestCrashRestartSoak -count=1 ./internal/faultnet

# Tier-failover soak: whole collector replicas are killed (and cold-started
# from their WALs) at every durability crash point while agents fail over
# between replicas; per-replica spools are then tiermerged and exactly-once
# conservation is asserted against a fault-free baseline, under -race.
tier-soak:
	$(GO) test -race -run TestTierFailoverSoak -count=1 ./internal/faultnet

# Bounded-memory scale proof: stream SOAK_DEVICES devices (a million by
# default here) through sketch mode's second-pass battery under a MemStats
# watchdog. The test asserts the peak heap stays under a per-device ceiling
# AND that a lower bound on accumulating per user-day would have blown
# through it. Set SOAK_MEMSTATS_OUT to keep the measurements as a JSON
# artifact.
SOAK_DEVICES ?= 1000000
soak-1m:
	SOAK_DEVICES=$(SOAK_DEVICES) SOAK_MEMSTATS_OUT=$(SOAK_MEMSTATS_OUT) \
		$(GO) test -run '^TestSketchSoak$$' -count=1 -v -timeout 30m ./internal/analysis

# External tier smoke: three real collectd processes on loopback driven by
# loadgen over the wire protocol, SIGTERM-drained, and tiermerged — covers
# the built binaries, flags, signals, and HTTP surface the in-process suites
# cannot.
external-smoke:
	./scripts/external-smoke.sh

# The local CI gate: what CI's lint and test jobs run — lint (formatting,
# vet, smuvet), smuvet output determinism, race-enabled shuffled tests,
# pipebench self-tests, fuzz smoke, chaos + kill-restart + tier-failover
# soaks — plus the in-process and external ingest smokes. The benchmark
# smoke stands in for CI's bench-diff, which runs the same one-iteration
# suite against BENCH_8.json and fails on everything the smoke fails on.
# CI-only: bench-diff and the 100k-device sketch soak (make soak-1m).
check: lint
	$(MAKE) smuvet-determinism
	$(GO) test -race -shuffle=on ./...
	$(MAKE) pipebench-test
	$(MAKE) bench-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) chaos
	$(MAKE) crash
	$(MAKE) tier-soak
	$(MAKE) ingest-smoke
	$(MAKE) external-smoke

# Regenerate EXPERIMENTS.md, the golden that pipebench's
# TestReportFullReproducesExperiments byte-compares (make pipebench-test):
# the paper-sized study, scale 1.0 and seed 1. Every run spools each campaign
# to a trace file and streams it back; without -tracedir the three traces
# (~1.2 GB at this scale) live in temp dirs under $TMPDIR that the run
# removes.
experiments:
	$(GO) run ./cmd/report -scale 1.0 -seed 1 -o EXPERIMENTS.md

# Removes run artifacts from the repo root (collectd spool/WAL dirs as named
# in the docs, gentrace/traceconv/report/agentsim outputs, tiermerge's
# output as the docs name it and by default, loadgen manifests), loadgen
# scratch kept via -scratch, pipebench's build cache, binary and scratch
# (.bench_build/), and scratch left in TMPDIR by killed runs: soak test dirs
# (a completed run cleans its own t.TempDir), loadgen's and
# examples/pipeline's temp dirs, a campaign run's spooled trace (removed by
# the run unless it is killed), and tiermerge's sorted runs (a merge
# removes its own scratch dir unless killed mid-merge).
clean:
	rm -f campaign-*.trace campaign-*.jsonl collected.trace merged.trace bench-current.json ingest-current.json
	rm -rf spool wal loadgen-scratch .bench_build $${TMPDIR:-/tmp}/TestChaosSoak* $${TMPDIR:-/tmp}/TestCrashRestartSoak* $${TMPDIR:-/tmp}/TestTierFailoverSoak* $${TMPDIR:-/tmp}/loadgen-* $${TMPDIR:-/tmp}/pipeline-example-* $${TMPDIR:-/tmp}/smartusage-campaign-* $${TMPDIR:-/tmp}/tiermerge-*
