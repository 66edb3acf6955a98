# FexIoT build/test/benchmark entry points. `make check` is the CI gate:
# build, vet, tests and the race detector must all pass.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test test-debugarena test-purego cross race race-fedproto race-fed \
	race-serve race-supervise race-stream soak vet bench \
	bench-agg bench-codecs bench-json bench-json-smoke bench-smoke \
	poison-smoke obs-smoke serve-smoke stream-smoke fuzz check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The arena's NaN-poison mode: released buffers are filled with NaN, so any
# use-after-recycle in the tape/workspace layers fails loudly. Runs the
# allocation-hot packages with the debugarena build tag, never from cache.
# Ops that lease their value uncleared (autodiff's opFull) receive the poison
# on every recycled buffer, so this is also what proves each of them assigns
# every element; gnn's pooled-tape tests (TestTrainTapePoolBounded,
# TestTrainTapePanicNotReused) ride along.
test-debugarena:
	$(GO) test -tags=debugarena -count=1 ./internal/mat/ \
		./internal/autodiff/ ./internal/gnn/ ./internal/nn/

# The portable fallback of the row routines under every product and
# readout (internal/mat/rowterms_generic.go) and of the Adam step
# (internal/autodiff/adam_generic.go), on this host: purego is a
# build constraint for CI, not a user option. The kernel oracle, the
# tape/GNN suites, the pinned-F1 experiment constants and the end-to-end
# hashes — the pinned explanations, a federation's global model and the
# in-process simulator's five algorithms — must hold on the generic loops
# exactly as on the assembly.
test-purego:
	$(GO) test -tags purego ./internal/mat ./internal/autodiff ./internal/gnn \
		./internal/nn ./internal/experiments
	$(GO) test -tags purego -run '^TestExplanationsPinned$$' .
	$(GO) test -tags purego -run '^TestFedRoundModelHashPinned$$' ./internal/fedproto
	$(GO) test -tags purego -run '^TestSimulatorPinned$$' ./internal/fed

# Every other GOARCH takes the same fallbacks: prove it still builds (the
# module has no dependencies, so this works offline) and that vet accepts
# the packages without their assembly files.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/mat ./internal/autodiff

# The full suite under the race detector, never from cache — this is the
# race gate of `make check`. The evaluation package alone (pinned F1 sweeps
# under ~15x race instrumentation) legitimately needs most of go test's
# default 600s per-package budget on single-core CI hosts, so the timeout
# is raised explicitly — a hang still fails, just later. Then the two tests
# one pass is not enough for, ten times each: the shared text encoder and
# the builder's node-feature tables every request's fusion goes through
# (filling them past their bounds from several goroutines is the point).
race:
	$(GO) test -race -count=1 -timeout 1800s ./...
	$(GO) test -race -count=10 -run TestEncoderConcurrent ./internal/embed/
	$(GO) test -race -count=10 -run TestNodeFeatureConcurrent ./internal/fusion/

# The race-* targets below are one subsystem's share of `race`, for the
# minute-long loop while working on it; `check` does not run them, because
# `race` already ran every test they name.
#
# The federation protocol's concurrency paths (quorum rounds, eviction,
# rejoin, fault injection, crash/restart recovery).
race-fedproto:
	$(GO) test -race -count=1 ./internal/fedproto/...

# The robust-aggregation and Byzantine-attack paths, and what every
# federated client's round shares with the others in its process: eight
# concurrent TrainContrastive calls on the workspace pool.
race-fed:
	$(GO) test -race -count=1 ./internal/fed/...
	$(GO) test -race -count=1 -run TestTrainContrastiveConcurrent ./internal/gnn/

# The snapshot-isolated serving engine (swap-mid-storm, the value-checked
# flood, HTTP) plus the facade's detect-while-training race regression and
# online fusion itself (which holds the builder lock only for its graph
# ID). The serve package carries TestExplainConcurrent (eight searches, one
# snapshot, each on its own scorer) and TestExplainCancelled.
race-serve:
	$(GO) test -race -count=1 ./internal/serve/...
	$(GO) test -race -count=1 -run TestBuildOnlineConcurrent ./internal/fusion/
	$(GO) test -race -count=1 -run 'TestConcurrentDetectWhileTraining|TestServeEndToEnd' .

# The self-healing runtime: the supervisor's restart/circuit paths, the
# chaos primitives, and the serve engine's Close-vs-submit and shed races.
race-supervise:
	$(GO) test -race -count=1 ./internal/supervise/... ./internal/chaos/...
	$(GO) test -race -count=1 \
		-run 'TestCloseSubmitRace|TestOverloadShedsFast|TestWorkerPanicRecoveredAndRestarted' \
		./internal/serve/

# The streaming session subsystem: the manager's concurrent
# ingest/verdict/evict paths plus the full-stack stream e2e (bit-identity
# vs batch, republish tracking, idle eviction), and concurrent online
# fusion, which every session's verdict runs under its own lock only.
race-stream:
	$(GO) test -race -count=1 ./internal/stream/...
	$(GO) test -race -count=1 -run TestBuildOnlineConcurrent ./internal/fusion/
	$(GO) test -race -count=1 -run 'TestStream' .

# The cross-layer chaos soak: a seeded plan kills a client link, hard-stops
# and restarts the checkpointing federation server over a corrupted latest
# snapshot, and crashes a supervised republisher — everything must recover.
soak:
	$(GO) test -count=1 -run TestSoak -timeout 300s ./internal/chaos/

# The second line keeps the environment-variable census (README
# "Configuration") by grep: the module reads FEXIOT_SCALE, in
# internal/datasets, and no other variable of its own.
vet:
	$(GO) vet ./...
	@! grep -rn --include='*.go' 'os.Getenv("FEXIOT_' . | grep -v '^./internal/datasets/'

# The full evaluation as benches (one run per table/figure at CI scale).
bench:
	$(GO) test -bench=. -benchmem

# Aggregation-rule throughput: FedAvg vs trimmed/median/norm-clip/Krum.
bench-agg:
	$(GO) test -run XXX -bench 'Aggregators' .

# Update-codec encode/decode throughput and wire-byte footprint (raw64 vs
# q8/topk), plus the ≥4x q8 compression pin as a hard test. Fast: a
# bounded benchtime keeps this inside the `make check` budget.
bench-codecs:
	$(GO) test -count=1 -run 'TestQ8BeatsRaw64ByFourX' \
		-bench Codecs -benchtime 100x ./internal/fedproto/codec/

# Allocation/throughput baseline snapshot: runs the pinned benchmarks with
# -benchmem and writes BENCH_<date>.json (name, ns/op, B/op, allocs/op plus
# extra ReportMetric columns) for committing/diffing against past baselines.
bench-json:
	sh scripts/bench-baseline.sh

# Harness smoke for `make check`: tiny benchtime, throwaway output file —
# proves the bench-to-JSON pipeline still runs and parses.
bench-json-smoke:
	BENCH_SMOKE=1 sh scripts/bench-baseline.sh

# Every BENCHMARK.json workload in -short mode plus one traced run (~20 s).
# bench/ is a nested module that `go build ./...` and `go test ./...` never
# compile, so this is what catches an internal-API change that breaks it.
bench-smoke:
	bash bench/smoke.sh

# The pinned poisoning acceptance scenario, never from cache: 8 clients,
# 2 Byzantine, robust aggregators must hold F1 while FedAvg degrades.
poison-smoke:
	$(GO) test -count=1 -run TestPoisonRobustnessPinned ./internal/experiments/

# End-to-end observability smoke: a real two-client federation with
# fexserver -http, then curl /metrics and /statusz and fail on anything
# missing or empty.
obs-smoke:
	sh scripts/obs-smoke.sh

# End-to-end serving smoke: fexserve with a background republish cadence,
# a concurrent curl storm on /v1/detect across live snapshot swaps, zero
# non-2xx tolerated and the serve metrics must be live.
serve-smoke:
	sh scripts/serve-smoke.sh

# End-to-end streaming smoke: a real fexserve, one session fed the
# attack-injected NDJSON sample, rolling verdict tracked across ≥2
# republishes, structured error envelope and stream metrics asserted.
stream-smoke:
	sh scripts/stream-smoke.sh

# Wire-protocol fuzzers (a frame read and decode must error, never panic,
# and what decodes re-encodes to a frame that decodes the same), the
# checkpoint loader's (any file bytes => no panic, no load without a valid
# footer, and what loads re-saves and reloads bit-identically), the /v1
# body decoder's differential fuzzers (answered => deep-equal to
# encoding/json, never panic), online fusion's (perturbed log =>
# deep-equal to the reference fusion) and the text encoder's (any bytes =>
# bit-equal to the reference tokenise-and-embed path) and the arena's
# (FuzzArena: any lease/release/trim schedule => zeroed leases, no two live
# buffers aliased, consistent stats) and the row routine's
# (FuzzAxpy: any terms and floats => bit-equal to the scalar loop, nothing
# touched outside the operands) and the explanation scorer's (any graph and run of node subsets
# => bit-equal to scoring a freshly induced subgraph, at every memo bound,
# every layer) and the testbed simulator's (any rule set and noise settings
# => no panic, a log in time order, every state confirmation one second
# after its command, a seed fixes the log).
# FUZZTIME bounds each target; raise it for long local runs.
fuzz:
	$(GO) test -fuzz FuzzDecodeUpdate -fuzztime $(FUZZTIME) ./internal/fedproto/
	$(GO) test -fuzz FuzzDecodeHello -fuzztime $(FUZZTIME) ./internal/fedproto/
	$(GO) test -fuzz FuzzLoadCheckpoint -fuzztime $(FUZZTIME) ./internal/fedproto/
	$(GO) test -fuzz FuzzDecodeDetectRequest -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz FuzzDecodeEvents -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz FuzzBuildOnline -fuzztime $(FUZZTIME) ./internal/fusion/
	$(GO) test -fuzz FuzzRuleEmbedding -fuzztime $(FUZZTIME) ./internal/embed/
	$(GO) test -fuzz FuzzArena -fuzztime $(FUZZTIME) ./internal/mat/
	$(GO) test -fuzz FuzzAxpy -fuzztime $(FUZZTIME) ./internal/mat/
	$(GO) test -fuzz FuzzScorer -fuzztime $(FUZZTIME) ./internal/gnn/
	$(GO) test -fuzz FuzzSimulate -fuzztime $(FUZZTIME) ./internal/eventlog/

check: build vet test test-debugarena test-purego cross race soak poison-smoke \
	bench-codecs bench-json-smoke bench-smoke obs-smoke serve-smoke stream-smoke
