package fused

// Fused-kernel microbenchmarks over one 16 KiB chunk, paired against
// their stage-by-stage reference pipelines so the fusion win is measured
// directly; Ratio64 also runs on an FCM-stream chunk of internal/sdr
// data (the sdr-fcm rows), the traffic whole-input DPratio feeds it. BenchmarkFusedForward/BenchmarkFusedInverse feed `go test
// -bench`; TestEmitFusedBench merges fused rows into the repository-root
// BENCH_transforms.json written by the transforms emitter (regenerate
// both with `make bench-transforms`).

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fpcompress/internal/sdr"
	"fpcompress/internal/simd"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

const benchChunk = 16 * 1024

// benchData is smooth float-like data — the compressible common case the
// kernels are tuned for — at the benchmarked kernel's word size
// (transforms.benchData's recipe, so rows are comparable).
func benchData(word wordio.WordSize) []byte {
	b := make([]byte, benchChunk)
	if word == wordio.W32 {
		for i := 0; i+4 <= len(b); i += 4 {
			wordio.PutU32(b[i:], 0, math.Float32bits(float32(100+math.Sin(float64(i)/256))))
		}
		return b
	}
	for i := 0; i+8 <= len(b); i += 8 {
		wordio.PutU64(b[i:], 0, math.Float64bits(100+math.Sin(float64(i)/512)))
	}
	return b
}

// dpRatioChunk is the chunk whole-input DPratio's Ratio64 kernel sees: the
// FCM stream of the 20 internal/sdr double-precision files (one chunk of
// values each, concatenated), cut at the 16 KiB that straddle the
// stream's value/distance boundary, so it holds both halves.
var dpRatioChunk = sync.OnceValue(func() []byte {
	var src []byte
	for _, f := range sdr.DoubleFiles(sdr.Config{ValuesPerFile: benchChunk / 8}) {
		src = append(src, f.Data...)
	}
	stream := transforms.FCM{}.ForwardInto(nil, src)
	mid := len(stream) / 2
	return stream[mid-benchChunk/2 : mid+benchChunk/2]
})

// benchOffsets are the byte offsets the microbenchmarks place their input
// (and their dst append position) at: 0 aliases the buffers' words, 1
// measures the copy-in/copy-out scratch route misaligned callers take.
var benchOffsets = []int{0, 1}

func BenchmarkFusedForward(b *testing.B) {
	for _, f := range kernels() {
		for _, off := range benchOffsets {
			b.Run(fmt.Sprintf("%s/offset%d", f.Name(), off), func(b *testing.B) {
				src := atOffset(benchData(f.word), off)
				dst := make([]byte, off)
				b.SetBytes(benchChunk)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = f.ForwardInto(dst[:off], src)
				}
			})
		}
		b.Run(f.Name()+"/reference", func(b *testing.B) {
			src := benchData(f.word)
			ref := f.ref
			var dst []byte
			b.SetBytes(benchChunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = ref.ForwardInto(dst[:0], src)
			}
		})
	}
	b.Run(sharedRatio64.Name()+"/sdr-fcm", func(b *testing.B) {
		src := dpRatioChunk()
		var dst []byte
		b.SetBytes(benchChunk)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = sharedRatio64.ForwardInto(dst[:0], src)
		}
	})
}

func BenchmarkFusedInverse(b *testing.B) {
	for _, f := range kernels() {
		for _, off := range benchOffsets {
			b.Run(fmt.Sprintf("%s/offset%d", f.Name(), off), func(b *testing.B) {
				enc := atOffset(f.ForwardInto(nil, benchData(f.word)), off)
				dst := make([]byte, off)
				var err error
				b.SetBytes(benchChunk)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if dst, err = f.InverseInto(dst[:off], enc, benchChunk); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	b.Run(sharedRatio64.Name()+"/sdr-fcm", func(b *testing.B) {
		enc := sharedRatio64.ForwardInto(nil, dpRatioChunk())
		var dst []byte
		var err error
		b.SetBytes(benchChunk)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if dst, err = sharedRatio64.InverseInto(dst[:0], enc, benchChunk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// transformBenchResult/Report mirror the transforms emitter's JSON schema
// so fused rows merge into the same file.
type transformBenchResult struct {
	Transform    string  `json:"transform"`
	Op           string  `json:"op"`
	ChunkBytes   int     `json:"chunk_bytes"`
	Ops          int     `json:"ops"`
	Path         string  `json:"path,omitempty"`
	MBPerS       float64 `json:"mb_per_sec"`
	EncodedBytes int     `json:"encoded_bytes,omitempty"`
}

type transformBenchReport struct {
	Benchmark  string                 `json:"benchmark"`
	Command    string                 `json:"command"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Runtime    simd.Info              `json:"runtime"`
	Results    []transformBenchResult `json:"results"`
}

func measureKernel(fn func()) (mbps float64, ops int) {
	for i := 0; i < 16; i++ {
		fn()
	}
	const minDur = 200 * time.Millisecond
	start := time.Now()
	for time.Since(start) < minDur {
		fn()
		ops++
	}
	return float64(benchChunk) * float64(ops) / time.Since(start).Seconds() / 1e6, ops
}

const benchFile = "../../../BENCH_transforms.json"

// TestEmitFusedBench appends/refreshes the fused kernel rows in
// BENCH_transforms.json, preserving the per-stage rows the transforms
// emitter wrote (run `make bench-transforms` to regenerate both in
// order). Missing file degrades to a fused-only report so the target
// works standalone.
func TestEmitFusedBench(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark emit in -short mode")
	}
	report := transformBenchReport{Benchmark: "transform_kernel_throughput"}
	if raw, err := os.ReadFile(benchFile); err == nil {
		if err := json.Unmarshal(raw, &report); err != nil {
			t.Fatalf("existing %s is unparseable: %v", benchFile, err)
		}
	}
	if !strings.Contains(report.Command, "TestEmitFusedBench") {
		report.Command = strings.TrimSpace(report.Command) + " + go test ./internal/transforms/fused -run TestEmitFusedBench -count=1 -v   (make bench-transforms)"
	}
	// Drop stale fused rows, then re-measure.
	kept := report.Results[:0]
	for _, r := range report.Results {
		if !strings.HasPrefix(r.Transform, "FUSED(") {
			kept = append(kept, r)
		}
	}
	report.Results = kept
	report.Runtime = simd.RuntimeInfo()
	// Dispatched path first, then the forced-scalar baseline on builds with
	// SIMD kernels (mirrors the transforms emitter).
	paths := []string{simd.Active()}
	if simd.Active() != "scalar" {
		paths = append(paths, "scalar")
	}
	defer simd.Enable()
	for _, path := range paths {
		if path == "scalar" {
			simd.Disable()
		} else {
			simd.Enable()
		}
		for _, f := range kernels() {
			src := benchData(f.word)
			enc := f.ForwardInto(nil, src)
			var dst []byte
			var err error

			mbps, ops := measureKernel(func() { dst = f.ForwardInto(dst[:0], src) })
			report.Results = append(report.Results, transformBenchResult{
				Transform: f.Name(), Op: "forward", ChunkBytes: benchChunk, Ops: ops,
				Path: path, MBPerS: mbps, EncodedBytes: len(enc),
			})
			t.Logf("%s forward (%s): %.1f MB/s", f.Name(), path, mbps)

			mbps, ops = measureKernel(func() {
				if dst, err = f.InverseInto(dst[:0], enc, benchChunk); err != nil {
					t.Fatal(err)
				}
			})
			report.Results = append(report.Results, transformBenchResult{
				Transform: f.Name(), Op: "inverse", ChunkBytes: benchChunk, Ops: ops,
				Path: path, MBPerS: mbps,
			})
			t.Logf("%s inverse (%s): %.1f MB/s", f.Name(), path, mbps)
		}
	}
	simd.Enable()
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// Only a run that names this test (make bench-transforms) rewrites the
	// committed report; a plain go test ./... measures, logs and stops.
	if f := flag.Lookup("test.run"); f == nil || !strings.Contains(f.Value.String(), t.Name()) {
		t.Logf("%s left unchanged: -run does not name %s", benchFile, t.Name())
		return
	}
	if err := os.WriteFile(benchFile, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
