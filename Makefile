# Developer entry points. `make check` is the full tier-1 verification
# plus vet and the race run over the serving layer.

GO ?= go

.PHONY: all build test race vet check perfbench-check deadcode purego noasm crossarm cross386 fuzz-smoke corpus-check chaos salvage scrub bench-server bench-core bench-auto bench-transforms bench-smoke fpcd loc clean

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
# must the container engine's parallel encode, scatter and decode loops,
# core's pre-stage plumbing, the transform kernels and the fused
# single-pass kernels (the differential offset tests cover both the
# aliased word views and the copy-in/copy-out scratch route, and
# fused-vs-reference), the whole-input FCM's parallel encoder, and the
# worker team both run on (internal/par).
race:
	$(GO) test -race -count=1 ./internal/server/...
	$(GO) test -race -count=1 ./internal/container/... ./internal/core/... ./internal/par/...
	$(GO) test -race -count=1 -run 'Client|Stream' .
	$(GO) test -race -count=1 -run 'TestKernel|TestFused|TestFCM|FuzzFCM' ./internal/transforms/...

# perfbench is a module of its own (it replaces fpcompress with ../), so
# the root `./...` patterns never build it: vet and test it on its own, or
# an internal API change could break the benchmark unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: build vet test race perfbench-check

# Runs the lean test alone: it fails on a package that no non-test code
# imports, on an exported internal/ function or variable that no non-test
# code references, and on a stale entry of its allow-list (lean_test.go).
# `make check` runs it too, as part of `go test ./...`.
deadcode:
	$(GO) test -count=1 -run TestLean .

# Runs every hostile-input fuzz harness (fpcd's frame reader and the
# baseline decoders included), plus the FCM encoder's differential fuzzer,
# for FUZZTIME each (go's fuzz engine accepts one -fuzz pattern per
# package invocation, hence the loops). Seeds include the checked-in
# corpus under testdata/corrupt/.
FUZZTIME ?= 10s
TRANSFORM_FUZZERS := FuzzDiffMSInverse FuzzBitInverse FuzzMPLGInverse \
	FuzzRZEInverse FuzzFCMInverse FuzzFCMForward FuzzRAZEInverse \
	FuzzRAREInverse FuzzPipelineInverse
FUSED_FUZZERS := FuzzFusedKernels
CONTAINER_FUZZERS := FuzzParse FuzzDecompressContainer
SERVER_FUZZERS := FuzzReadRequest FuzzReadResponse
BASELINE_FUZZERS := FuzzBaselines
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
	@for f in $(SERVER_FUZZERS); do \
		$(GO) test ./internal/server -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for f in $(BASELINE_FUZZERS); do \
		$(GO) test ./internal/baselines -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for f in $(ROOT_FUZZERS); do \
		$(GO) test . -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Regenerates the corrupt-container corpus into a temporary directory and
# fails unless it matches testdata/corrupt/*.bin file for file and byte
# for byte, so the generator and the checked-in seeds cannot drift apart.
corpus-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run testdata/corrupt/gen.go "$$tmp" >/dev/null && \
	want=$$(ls testdata/corrupt/*.bin | wc -l) && got=$$(ls "$$tmp"/*.bin | wc -l) && \
	if [ "$$want" -ne "$$got" ]; then \
		echo "corpus-check: gen.go wrote $$got files, testdata/corrupt has $$want"; exit 1; \
	fi && \
	for f in testdata/corrupt/*.bin; do cmp "$$f" "$$tmp/$${f##*/}" || exit 1; done && \
	echo "corpus-check: $$got/$$want files identical"

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
# kernels and the container's CRC fold): catches benchmarks that panic or
# fail to build without paying for a full measurement run.
bench-smoke:
	$(GO) test ./internal/transforms/... -run '^$$' -bench . -benchtime 1x
	$(GO) test ./internal/container -run '^$$' -bench . -benchtime 1x
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

# 32-bit check: builds the whole module for 386 (where int is 32 bits and
# the amd64 assembly compiles out) and runs every package's suite under
# it, so a constant that overflows int or a header varint that wraps on
# conversion is caught. Runs natively on an amd64 Linux host (about a
# minute on two cores with a warm build cache).
cross386:
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) test -count=1 ./...

# Prints the three line counts each change records in CHANGES.md:
# non-test Go, test Go and assembly, over the files git tracks (stage new
# files first; untracked ones are not counted).
loc:
	@printf 'non-test Go %6d\n' $$(git ls-files -z '*.go' ':(exclude)*_test.go' | xargs -0 cat | wc -l)
	@printf 'test Go     %6d\n' $$(git ls-files -z '*_test.go' | xargs -0 cat | wc -l)
	@printf 'assembly    %6d\n' $$(git ls-files -z '*.s' | xargs -0 cat | wc -l)

# Builds the compression daemon to bin/fpcd.
fpcd:
	$(GO) build -o bin/fpcd ./cmd/fpcd

clean:
	rm -rf bin
