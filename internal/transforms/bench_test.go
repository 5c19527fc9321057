package transforms

// Per-transform microbenchmarks over one 16 KiB chunk — the default
// container chunk size, so these measure exactly the kernel loops the
// pipeline hot path runs. BenchmarkForward/BenchmarkInverse feed `go test
// -bench`; TestEmitTransformsBench writes BENCH_transforms.json at the
// repository root with MB/s per kernel (regenerate with `make
// bench-transforms`). BenchmarkFCMForward and BenchmarkFCMInverse measure
// the whole-input FCM encoder and decoder across input sizes instead.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fpcompress/internal/sdr"
	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

const benchChunk = 16 * 1024

// benchData is smooth float-like data — the compressible common case the
// kernels are tuned for — at the benchmarked transform's word size.
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

// benchKernels pairs each transform with the word size used to build its
// input (the byte-granularity transforms still see word-structured data,
// matching their position after DIFFMS/BIT in the pipelines).
type benchKernel struct {
	tr   Transform
	word wordio.WordSize
}

func benchKernels() []benchKernel {
	return []benchKernel{
		{DiffMS{Word: wordio.W32}, wordio.W32},
		{DiffMS{Word: wordio.W64}, wordio.W64},
		{Bit{Word: wordio.W32}, wordio.W32},
		{Bit{Word: wordio.W64}, wordio.W64},
		{MPLG{Word: wordio.W32}, wordio.W32},
		{MPLG{Word: wordio.W64}, wordio.W64},
		{RZE{}, wordio.W32},
		{RAZE{}, wordio.W64},
		{RARE{}, wordio.W64},
		{FCM{}, wordio.W64},
		{FCM{Table: true}, wordio.W64},
	}
}

// benchOffsets are the byte offsets the microbenchmarks place their input
// (and their dst append position) at: 0 aliases the buffers' words, 1
// measures the copy-in/copy-out scratch route misaligned callers take.
var benchOffsets = []int{0, 1}

// atBenchOffset returns a copy of data at byte offset off of a fresh
// (word-aligned) backing array.
func atBenchOffset(data []byte, off int) []byte {
	back := make([]byte, off+len(data))
	copy(back[off:], data)
	return back[off:]
}

func BenchmarkForward(b *testing.B) {
	for _, k := range benchKernels() {
		for _, off := range benchOffsets {
			b.Run(fmt.Sprintf("%s/offset%d", k.tr.Name(), off), func(b *testing.B) {
				src := atBenchOffset(benchData(k.word), off)
				dst := make([]byte, off)
				b.SetBytes(benchChunk)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = k.tr.ForwardInto(dst[:off], src)
				}
			})
		}
	}
}

func BenchmarkInverse(b *testing.B) {
	for _, k := range benchKernels() {
		for _, off := range benchOffsets {
			b.Run(fmt.Sprintf("%s/offset%d", k.tr.Name(), off), func(b *testing.B) {
				enc := atBenchOffset(k.tr.ForwardInto(nil, benchData(k.word)), off)
				dst := make([]byte, off)
				var err error
				b.SetBytes(benchChunk)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if dst, err = k.tr.InverseInto(dst[:off], enc, benchChunk); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// fcmBenchData is 32 MiB of internal/sdr double-precision data: 32 KiB
// slices taken from the 20 files in turn, so prefixes from 640 KiB on mix
// all five domains.
var fcmBenchData = sync.OnceValue(func() []byte {
	const size, slice = 32 << 20, 32 << 10
	files := sdr.DoubleFiles(sdr.Config{ValuesPerFile: (size/20/slice + 1) * slice / 8})
	out := make([]byte, 0, size)
	for off := 0; len(out) < size; off += slice {
		for _, f := range files {
			out = append(out, f.Data[off:off+slice]...)
		}
	}
	return out[:size]
})

// BenchmarkFCMForward measures the whole-input FCM encoder from one chunk
// to 32 MiB, at one worker and at GOMAXPROCS: the per-byte cost grows
// where the working set leaves the cache.
func BenchmarkFCMForward(b *testing.B) {
	for _, size := range []int{16 << 10, 256 << 10, 2 << 20, 8 << 20, 32 << 20} {
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%dKiB/workers%d", size>>10, w), func(b *testing.B) {
				src := fcmBenchData()[:size]
				var dst []byte
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = FCM{}.ForwardWorkers(dst[:0], src, w)
				}
			})
		}
	}
}

// BenchmarkFCMInverse measures the whole-input FCM decoder over the same
// sizes, decoding into a reused dst and into a nil one (which allocates
// the output every time).
func BenchmarkFCMInverse(b *testing.B) {
	for _, size := range []int{16 << 10, 256 << 10, 2 << 20, 8 << 20, 32 << 20} {
		for _, dstKind := range []string{"reused", "nil"} {
			b.Run(fmt.Sprintf("%dKiB/%s", size>>10, dstKind), func(b *testing.B) {
				enc := FCM{}.ForwardInto(nil, fcmBenchData()[:size])
				var dst []byte
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := FCM{}.InverseInto(dst[:0], enc, NoLimit)
					if err != nil {
						b.Fatal(err)
					}
					if dstKind == "reused" {
						dst = out
					}
				}
			})
		}
	}
}

type transformBenchResult struct {
	Transform  string `json:"transform"`
	Op         string `json:"op"`
	ChunkBytes int    `json:"chunk_bytes"`
	Ops        int    `json:"ops"`
	// Path is the kernel path the row measured ("avx2", "neon", or
	// "scalar"); on builds with SIMD kernels each transform gets one row
	// per path so the speedup is visible in the report itself.
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

func TestEmitTransformsBench(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark emit in -short mode")
	}
	report := transformBenchReport{
		Benchmark:  "transform_kernel_throughput",
		Command:    "go test ./internal/transforms -run TestEmitTransformsBench -count=1 -v   (make bench-transforms)",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Runtime:    simd.RuntimeInfo(),
	}
	// One pass per kernel path: the dispatched path first, then — when the
	// build has SIMD kernels — the same measurements with dispatch
	// disabled, so the report carries its own scalar baseline.
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
		for _, k := range benchKernels() {
			src := benchData(k.word)
			enc := k.tr.ForwardInto(nil, src)
			var dst []byte
			var err error

			mbps, ops := measureKernel(func() { dst = k.tr.ForwardInto(dst[:0], src) })
			report.Results = append(report.Results, transformBenchResult{
				Transform: k.tr.Name(), Op: "forward", ChunkBytes: benchChunk, Ops: ops,
				Path: path, MBPerS: mbps, EncodedBytes: len(enc),
			})
			t.Logf("%s forward (%s): %.1f MB/s", k.tr.Name(), path, mbps)

			mbps, ops = measureKernel(func() {
				if dst, err = k.tr.InverseInto(dst[:0], enc, benchChunk); err != nil {
					t.Fatal(err)
				}
			})
			report.Results = append(report.Results, transformBenchResult{
				Transform: k.tr.Name(), Op: "inverse", ChunkBytes: benchChunk, Ops: ops,
				Path: path, MBPerS: mbps,
			})
			t.Logf("%s inverse (%s): %.1f MB/s", k.tr.Name(), path, mbps)
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
		t.Logf("BENCH_transforms.json left unchanged: -run does not name %s", t.Name())
		return
	}
	if err := os.WriteFile("../../BENCH_transforms.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
