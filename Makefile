# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race bench bench-hotpath bench-record bench-regress experiments results perfbench-test cover fuzz clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test -shuffle=on ./...
	$(GO) test -tags verify ./internal/cache ./internal/verify ./internal/core ./internal/sim ./internal/serve

# Race-detector pass over the concurrent packages: the worker pool, the
# single-flight caches, the experiment drivers that fan across them, the
# observability layer their workers all update, the advice server's
# concurrent client soak, the fleet coordinator/worker lease machinery,
# and the core package whose adaptive-duel gauges those concurrent
# workers now publish. CI's race job runs this target.
race:
	$(GO) test -race ./internal/parallel ./internal/sim ./internal/experiments ./internal/obs ./internal/serve ./internal/fleet ./internal/core

# Scaled-down reproduction of every figure/table as Go benchmarks.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x .

# Hot-path microbenchmarks: predictor confidence, one LLC access, generator
# batching, the advice-serving round trip, and the end-to-end fig6
# segment. See docs/PERFORMANCE.md.
bench-hotpath:
	$(GO) test -run NONE -bench 'BenchmarkPredictorConfidence|BenchmarkLLCAccess' -benchmem -benchtime 2s ./internal/core
	$(GO) test -run NONE -bench 'BenchmarkCacheLookup|BenchmarkVictimScan' -benchmem -benchtime 2s ./internal/cache
	$(GO) test -run NONE -bench BenchmarkGeneratorBatch -benchmem -benchtime 2s ./internal/workload
	$(GO) test -run NONE -bench 'BenchmarkServeAdvice|BenchmarkApplyInline' -benchmem -benchtime 2s ./internal/serve
	$(GO) test -run NONE -bench BenchmarkEndToEndFig6Segment -benchmem -benchtime 1x .

# Record a throughput trajectory point as BENCH_<n>.json.
bench-record:
	scripts/bench.sh

# Advisory regression gate: throwaway trajectory point vs the newest
# checked-in BENCH_*.json (see scripts/bench_regress.sh).
bench-regress:
	scripts/bench_regress.sh

# Full experiment campaign: TSV per figure/table into results/.
# Raise -warmup/-measure/-mixes for tighter numbers (slower).
results:
	$(GO) run ./cmd/mpppb-experiments -id all -out results

# End-to-end smokes against the real binaries (make resume-smoke, ...):
#   resume    SIGINT a journaled campaign, resume, byte-identical TSVs
#   watch     poll /metrics and /status mid-run, byte-identical TSV
#   serve     -check advice server, verifying clients, clean SIGINT drain
#   check     a fig6 segment under the lockstep -check oracle
#   fleet     coordinator + two workers, one killed -9, byte-identical TSVs
#   ingest    capture -> CSV/JSONL -> ingest round trip, -check replay
#   adaptive  figadapt plain vs -check vs -listen, mpppb-tune -> -duel
# Each runs scripts/<name>_smoke.sh.
SMOKES := resume watch serve check fleet ingest adaptive
.PHONY: $(SMOKES:%=%-smoke)
$(SMOKES:%=%-smoke): %-smoke:
	scripts/$*_smoke.sh

# The repository benchmark (perfbench/) is a module of its own outside the
# root ./..., so its vet and tests run here, against this checkout's
# internal packages.
perfbench-test:
	cd perfbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# Coverage gate: per-package report plus a total-% floor
# (see scripts/cover.sh; override with COVER_BASELINE=<pct>).
cover:
	scripts/cover.sh

# Smoke-budget run of every native fuzz target (the corpora double as
# regression tests under plain `go test`). One -fuzz per invocation, as
# `go test` requires.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run NONE -fuzz FuzzPredictorKernel -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run NONE -fuzz FuzzCacheOps -fuzztime $(FUZZTIME) ./internal/verify
	$(GO) test -run NONE -fuzz FuzzJournalLoad -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run NONE -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run NONE -fuzz FuzzIngestTrace -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run NONE -fuzz FuzzServeProtocol -fuzztime $(FUZZTIME) ./internal/serve

clean:
	rm -rf results
	$(GO) clean ./...
