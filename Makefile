# Developer entry points. `make check` is the full tier-1 verification
# plus vet and the race run over the serving layer.

GO ?= go

.PHONY: all build test race vet check purego noasm crossarm fuzz-smoke chaos salvage scrub bench-server bench-core bench-auto bench-transforms bench-smoke fpcd clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second invocation runs the unsafeptr analyzer by itself: the default
# vet set skips it under some configurations, and the wordio view helpers
# plus the kernels built on them are exactly the code it audits. The third
# runs asmdecl alone over the hand-written assembly in internal/simd: it
# checks every FP offset and frame size in the kernels against their Go
# declarations.
vet:
	$(GO) vet ./...
	$(GO) vet -unsafeptr ./...
	$(GO) vet -asmdecl ./internal/simd/

# The serving subsystem (internal/server) and the public client/stream
# layer (root package) must stay clean under the race detector, and so
# must the transform kernels and the fused single-pass kernels (the
# differential offset tests cover both the aliased word views and the
# copy-in/copy-out scratch route, and fused-vs-reference).
race:
	$(GO) test -race -count=1 ./internal/server/...
	$(GO) test -race -count=1 -run 'Client|Stream' .
	$(GO) test -race -count=1 -run 'TestKernel|TestFused' ./internal/transforms/...

check: build vet test race

# Runs every hostile-input fuzz harness, plus the FCM encoder's
# differential fuzzer, for FUZZTIME each (go's fuzz engine accepts one
# -fuzz pattern per package invocation, hence the loops). Seeds include
# the checked-in corpus under testdata/corrupt/.
FUZZTIME ?= 10s
TRANSFORM_FUZZERS := FuzzDiffMSInverse FuzzBitInverse FuzzMPLGInverse \
	FuzzRZEInverse FuzzFCMInverse FuzzFCMForward FuzzRAZEInverse \
	FuzzRAREInverse FuzzPipelineInverse
FUSED_FUZZERS := FuzzFusedKernels
CONTAINER_FUZZERS := FuzzParse FuzzDecompressContainer
ROOT_FUZZERS := FuzzContainerDecompress FuzzDecompressPartial FuzzDecompress FuzzStreamReader

fuzz-smoke:
	@for f in $(TRANSFORM_FUZZERS); do \
		$(GO) test ./internal/transforms -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for f in $(FUSED_FUZZERS); do \
		$(GO) test ./internal/transforms/fused -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for f in $(CONTAINER_FUZZERS); do \
		$(GO) test ./internal/container -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for f in $(ROOT_FUZZERS); do \
		$(GO) test . -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Seeded chaos soak: hundreds of requests through the deterministic
# fault-injection layer (internal/faultnet) under the race detector.
# CHAOSTIME multiplies the request count (like FUZZTIME for fuzz-smoke);
# a failing run prints its seed — replay with CHAOS_SEED=<seed>.
CHAOSTIME ?= 1
chaos:
	CHAOSTIME=$(CHAOSTIME) $(GO) test -race -count=1 -run TestChaosSoak -v .

# Storage bit-rot soak: deterministic bit flips and torn writes against
# self-healing (v3) containers under -race, checking the salvage
# guarantees round by round (parity repair, partial decode, degraded
# serving). Same CHAOSTIME/CHAOS_SEED conventions as `make chaos`.
salvage:
	CHAOSTIME=$(CHAOSTIME) $(GO) test -race -count=1 -run 'TestSalvageSoak|TestDegradedServer' -v .

# End-to-end scrub/repair CLI check: fpcz -scrub and -repair exit codes
# and the repaired container's byte identity.
scrub:
	$(GO) test -count=1 -run TestScrubRepair -v ./cmd/fpcz/

# Regenerates BENCH_server.json (loopback serving throughput for SPspeed
# and DPratio at 1, 4, and GOMAXPROCS clients).
bench-server:
	$(GO) test ./internal/server -run TestEmitServerBench -count=1 -v

# Regenerates BENCH_core.json (local-API compress/decompress throughput
# and allocations per operation for every algorithm).
bench-core:
	$(GO) test . -run TestEmitCoreBench -count=1 -v

# Auto-mode focus: measures the adaptive Auto32/Auto64 modes against
# their speed variants (BenchmarkAuto) and runs the mixed-corpus
# selection test pinning Auto's ratio against every fixed pipeline. The
# durable ratio/MB/s rows land in BENCH_core.json via `make bench-core`,
# whose TestEmitCoreBench includes the Auto32/Auto64 selection study.
bench-auto:
	$(GO) test . -run '^$$' -bench BenchmarkAuto -benchtime 2s
	$(GO) test . -run TestAutoSelection -count=1 -v

# Regenerates BENCH_transforms.json (single-thread MB/s for every
# transform kernel, forward and inverse, over one 16 KiB chunk). The
# fused emitter runs second: it re-reads the file and merges in the
# fused single-pass kernel rows.
bench-transforms:
	$(GO) test ./internal/transforms -run TestEmitTransformsBench -count=1 -v
	$(GO) test ./internal/transforms/fused -run TestEmitFusedBench -count=1 -v

# One-iteration smoke over every microbenchmark (including the fused
# kernels): catches benchmarks that panic or fail to build without paying
# for a full measurement run.
bench-smoke:
	$(GO) test ./internal/transforms/... -run '^$$' -bench . -benchtime 1x
	$(GO) test . -run '^$$' -bench . -benchtime 1x

# Cross-checks the purego build tag: no unsafe word view is ever granted,
# so every transform and fused kernel runs its one loop on copy-in/copy-out
# scratch (encoding/binary), every simd op runs its scalar body, and the
# whole suite must still pass.
purego:
	$(GO) build -tags purego ./...
	$(GO) test -tags purego -count=1 ./internal/wordio ./internal/simd ./internal/transforms/... ./internal/core ./internal/selector .

# Cross-checks the noasm build tag: the assembly in internal/simd compiles
# out, every simd op runs its scalar body, and the transform suite must
# pass on those pure-Go loops alone. Mirrors purego, which additionally
# disables the unsafe word views (so every buffer is copied in and out).
noasm:
	$(GO) build -tags noasm ./...
	$(GO) test -tags noasm -count=1 ./internal/simd ./internal/transforms/... ./internal/core ./internal/selector .

# Qemu-free arm64 check: cross-compiles the whole module (including the
# NEON assembly) and runs vet over the arm64 build of internal/simd, so
# NEON syntax or calling-convention rot is caught without arm64 hardware.
crossarm:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/simd/
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/simd/

# Builds the compression daemon to bin/fpcd.
fpcd:
	$(GO) build -o bin/fpcd ./cmd/fpcd

clean:
	rm -rf bin
