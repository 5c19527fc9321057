package fpcompress

// TestEmitCoreBench measures the local (non-serving) codec hot path —
// compress and decompress MB/s plus steady-state allocations per operation
// for every algorithm — over the synthetic SDR corpus, and writes
// BENCH_core.json at the repository root. It mirrors BENCH_server.json for
// the in-process engine, so allocation and throughput regressions in the
// chunk pipeline are visible without the wire protocol in the way.
//
// Regenerate with `make bench-core` (or the command recorded in the JSON).

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"fpcompress/internal/sdr"
	"fpcompress/internal/simd"
)

type coreBenchResult struct {
	Algorithm string `json:"algorithm"`
	Op        string `json:"op"`
	// Corpus tags the selection-study rows (homogeneous and mixed corpora
	// comparing the adaptive modes against the fixed pipelines); empty for
	// the default per-precision payload.
	Corpus          string  `json:"corpus,omitempty"`
	PayloadBytes    int     `json:"payload_bytes"`
	Ops             int     `json:"ops"`
	MBPerS          float64 `json:"mb_per_sec"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	AllocMBPerOp    float64 `json:"alloc_mb_per_op"`
	CompressedBytes int     `json:"compressed_bytes,omitempty"`
}

type coreBenchReport struct {
	Benchmark    string            `json:"benchmark"`
	Command      string            `json:"command"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	Runtime      simd.Info         `json:"runtime"`
	Results      []coreBenchResult `json:"results"`
	BaselineNote string            `json:"baseline_note"`
	Baseline     []coreBenchResult `json:"baseline"`
	Comparison   []coreBenchDelta  `json:"comparison"`
	// History accumulates one compact entry per emit (git SHA, date, and
	// the headline compress MB/s per algorithm), carried forward from the
	// previous file on every regeneration so the perf trajectory across
	// PRs is recorded instead of overwritten.
	History []coreBenchHistory `json:"history,omitempty"`
}

// coreBenchHistory is one emit's summary line in the accumulated
// trajectory.
type coreBenchHistory struct {
	SHA            string             `json:"sha"`
	Date           string             `json:"date"`
	CompressMBPerS map[string]float64 `json:"compress_mb_per_sec"`
}

// gitHeadSHA reports the current commit for the history entry; benches
// must still emit outside a git checkout, so failure degrades to
// "unknown".
func gitHeadSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// coreBenchDelta compares one (algorithm, op) pair against the pre-pooling
// baseline: positive mb_per_sec_delta_pct is a speedup, negative
// allocs_per_op_delta_pct is an allocation reduction.
type coreBenchDelta struct {
	Algorithm      string  `json:"algorithm"`
	Op             string  `json:"op"`
	MBPerSDeltaPct float64 `json:"mb_per_sec_delta_pct"`
	AllocsDeltaPct float64 `json:"allocs_per_op_delta_pct"`
}

// coreBenchBaseline is the pre-refactor measurement (commit ee07e22, before
// the append-into APIs, pooled scratch, and parallel scatter landed), taken
// with this same harness and payloads on the same machine. Kept static so
// regenerating the report preserves the comparison.
var coreBenchBaseline = []coreBenchResult{
	{Algorithm: "SPspeed", Op: "compress", PayloadBytes: 1835008, Ops: 58, MBPerS: 351.7, AllocsPerOp: 238.0, AllocMBPerOp: 7.17, CompressedBytes: 1114584},
	{Algorithm: "SPspeed", Op: "decompress", PayloadBytes: 1835008, Ops: 64, MBPerS: 390.3, AllocsPerOp: 348.5, AllocMBPerOp: 5.51},
	{Algorithm: "SPratio", Op: "compress", PayloadBytes: 1835008, Ops: 22, MBPerS: 129.7, AllocsPerOp: 2143.8, AllocMBPerOp: 10.88, CompressedBytes: 1063746},
	{Algorithm: "SPratio", Op: "decompress", PayloadBytes: 1835008, Ops: 24, MBPerS: 143.3, AllocsPerOp: 796.2, AllocMBPerOp: 7.61},
	{Algorithm: "DPspeed", Op: "compress", PayloadBytes: 2621440, Ops: 51, MBPerS: 441.2, AllocsPerOp: 334.0, AllocMBPerOp: 12.67, CompressedBytes: 1963387},
	{Algorithm: "DPspeed", Op: "decompress", PayloadBytes: 2621440, Ops: 74, MBPerS: 637.2, AllocsPerOp: 492.2, AllocMBPerOp: 7.87},
	{Algorithm: "DPratio", Op: "compress", PayloadBytes: 2621440, Ops: 7, MBPerS: 59.5, AllocsPerOp: 7869.9, AllocMBPerOp: 70.77, CompressedBytes: 1759487},
	{Algorithm: "DPratio", Op: "decompress", PayloadBytes: 2621440, Ops: 20, MBPerS: 169.8, AllocsPerOp: 3473.5, AllocMBPerOp: 39.95},
	{Algorithm: "SPbalance", Op: "compress", PayloadBytes: 1835008, Ops: 27, MBPerS: 162.7, AllocsPerOp: 2330.4, AllocMBPerOp: 12.19, CompressedBytes: 1117521},
	{Algorithm: "SPbalance", Op: "decompress", PayloadBytes: 1835008, Ops: 27, MBPerS: 164.4, AllocsPerOp: 769.8, AllocMBPerOp: 6.84},
	{Algorithm: "DPbalance", Op: "compress", PayloadBytes: 2621440, Ops: 18, MBPerS: 152.4, AllocsPerOp: 3460.2, AllocMBPerOp: 21.27, CompressedBytes: 1926441},
	{Algorithm: "DPbalance", Op: "decompress", PayloadBytes: 2621440, Ops: 19, MBPerS: 161.4, AllocsPerOp: 1133.7, AllocMBPerOp: 10.21},
}

// measureCoreOp runs fn repeatedly for at least minDur after a warmup and
// reports throughput plus the global allocation delta per op. Allocations
// are read from runtime.MemStats (not testing.AllocsPerRun) so the engine's
// worker goroutines are included in the count.
func measureCoreOp(t *testing.T, payloadBytes int, fn func()) (mbps, allocsPerOp, allocMBPerOp float64, ops int) {
	t.Helper()
	// Warm the buffer pools: the steady state is what production serving
	// traffic sees, and what this benchmark pins.
	for i := 0; i < 4; i++ {
		fn()
	}
	const minDur = 300 * time.Millisecond
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < minDur {
		fn()
		ops++
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	mbps = float64(payloadBytes) * float64(ops) / elapsed / 1e6
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
	allocMBPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops) / 1e6
	return mbps, allocsPerOp, allocMBPerOp, ops
}

func TestEmitCoreBench(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark emit in -short mode")
	}
	report := coreBenchReport{
		Benchmark:    "core_codec_throughput_and_allocs",
		Command:      "go test . -run TestEmitCoreBench -count=1 -v   (make bench-core)",
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Runtime:      simd.RuntimeInfo(),
		BaselineNote: "baseline measured with this same harness and payloads at the commit preceding the zero-allocation refactor (pooled scratch, append-into APIs, parallel scatter, combined per-chunk CRCs)",
		Baseline:     coreBenchBaseline,
	}

	// One representative multi-chunk SDR payload per precision: the sample
	// files concatenated, a few MiB, large enough that the parallel engine
	// and the per-chunk steady state dominate.
	cfg := sdr.Config{ValuesPerFile: 1 << 16}
	var sp, dp []byte
	seen := map[string]bool{}
	for _, f := range sdr.SingleFiles(cfg) {
		if !seen[f.Domain] {
			seen[f.Domain] = true
			sp = append(sp, f.Data...)
		}
	}
	seen = map[string]bool{}
	for _, f := range sdr.DoubleFiles(cfg) {
		if !seen[f.Domain] {
			seen[f.Domain] = true
			dp = append(dp, f.Data...)
		}
	}
	payloads := map[Algorithm][]byte{
		SPspeed: sp, SPratio: sp, SPbalance: sp, Auto32: sp,
		DPspeed: dp, DPratio: dp, DPbalance: dp, Auto64: dp,
	}

	for _, alg := range []Algorithm{SPspeed, SPratio, DPspeed, DPratio, SPbalance, DPbalance, Auto32, Auto64} {
		src := payloads[alg]
		blob, err := Compress(alg, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decompress(blob, nil)
		if err != nil || len(back) != len(src) {
			t.Fatalf("%v: roundtrip failed: %v", alg, err)
		}

		mbps, apo, ampo, ops := measureCoreOp(t, len(src), func() {
			if _, err := Compress(alg, src, nil); err != nil {
				t.Fatal(err)
			}
		})
		report.Results = append(report.Results, coreBenchResult{
			Algorithm: alg.String(), Op: "compress", PayloadBytes: len(src), Ops: ops,
			MBPerS: mbps, AllocsPerOp: apo, AllocMBPerOp: ampo, CompressedBytes: len(blob),
		})
		t.Logf("%s compress: %.1f MB/s, %.1f allocs/op, %.2f MB alloc/op", alg, mbps, apo, ampo)

		mbps, apo, ampo, ops = measureCoreOp(t, len(src), func() {
			if _, err := Decompress(blob, nil); err != nil {
				t.Fatal(err)
			}
		})
		report.Results = append(report.Results, coreBenchResult{
			Algorithm: alg.String(), Op: "decompress", PayloadBytes: len(src), Ops: ops,
			MBPerS: mbps, AllocsPerOp: apo, AllocMBPerOp: ampo,
		})
		t.Logf("%s decompress: %.1f MB/s, %.1f allocs/op, %.2f MB alloc/op", alg, mbps, apo, ampo)
	}

	// Windowed study: the per-chunk-FCM variants on the same DP payload.
	// The default-parallelism rows sit beside the whole-input ones above;
	// the single-thread rows pin the fused windowed pipeline's kernel
	// speed (acceptance: windowed DPratio compress >= 250 MB/s at one
	// worker, >= 3x the whole-input encoder) with the engine's worker
	// scaling measured separately by the parallel rows.
	oneThread := func(windowed bool) *Options {
		return &Options{WindowedFCM: windowed, Parallelism: 1}
	}
	for _, alg := range []Algorithm{DPratio, Auto64} {
		src := payloads[alg]
		wblob, err := Compress(alg, src, &Options{WindowedFCM: true})
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decompress(wblob, nil)
		if err != nil || len(back) != len(src) {
			t.Fatalf("%v windowed: roundtrip failed: %v", alg, err)
		}
		name := alg.String() + "-w"

		mbps, apo, ampo, ops := measureCoreOp(t, len(src), func() {
			if _, err := Compress(alg, src, &Options{WindowedFCM: true}); err != nil {
				t.Fatal(err)
			}
		})
		report.Results = append(report.Results, coreBenchResult{
			Algorithm: name, Op: "compress", PayloadBytes: len(src), Ops: ops,
			MBPerS: mbps, AllocsPerOp: apo, AllocMBPerOp: ampo, CompressedBytes: len(wblob),
		})
		t.Logf("%s compress: %.1f MB/s, %.1f allocs/op, %.2f MB alloc/op", name, mbps, apo, ampo)

		mbps, apo, ampo, ops = measureCoreOp(t, len(src), func() {
			if _, err := Decompress(wblob, nil); err != nil {
				t.Fatal(err)
			}
		})
		report.Results = append(report.Results, coreBenchResult{
			Algorithm: name, Op: "decompress", PayloadBytes: len(src), Ops: ops,
			MBPerS: mbps, AllocsPerOp: apo, AllocMBPerOp: ampo,
		})
		t.Logf("%s decompress: %.1f MB/s, %.1f allocs/op, %.2f MB alloc/op", name, mbps, apo, ampo)

		mbps, apo, ampo, ops = measureCoreOp(t, len(src), func() {
			if _, err := Compress(alg, src, oneThread(true)); err != nil {
				t.Fatal(err)
			}
		})
		report.Results = append(report.Results, coreBenchResult{
			Algorithm: name, Op: "compress", Corpus: "DP-1thread", PayloadBytes: len(src), Ops: ops,
			MBPerS: mbps, AllocsPerOp: apo, AllocMBPerOp: ampo, CompressedBytes: len(wblob),
		})
		t.Logf("%s compress (1 thread): %.1f MB/s", name, mbps)
	}
	// The whole-input encoder at one worker, for the 3x comparison in
	// place.
	{
		src := payloads[DPratio]
		blob, err := Compress(DPratio, src, oneThread(false))
		if err != nil {
			t.Fatal(err)
		}
		mbps, apo, ampo, ops := measureCoreOp(t, len(src), func() {
			if _, err := Compress(DPratio, src, oneThread(false)); err != nil {
				t.Fatal(err)
			}
		})
		report.Results = append(report.Results, coreBenchResult{
			Algorithm: "DPratio", Op: "compress", Corpus: "DP-1thread", PayloadBytes: len(src), Ops: ops,
			MBPerS: mbps, AllocsPerOp: apo, AllocMBPerOp: ampo, CompressedBytes: len(blob),
		})
		t.Logf("DPratio compress (1 thread): %.1f MB/s", mbps)
	}

	// Selection study: the adaptive modes against every fixed pipeline of
	// their word size, compress-only, on one homogeneous corpus per
	// precision plus the mixed double-precision corpus (the acceptance
	// corpora for the auto modes: ratio within 2% of the best fixed
	// pipeline and >=75% of the speed variant's MB/s on homogeneous data,
	// strictly smaller than every fixed pipeline on the mixed corpus).
	domainBytes := func(files []*sdr.File, domains ...string) []byte {
		want := map[string]bool{}
		for _, d := range domains {
			want[d] = true
		}
		var out []byte
		for _, f := range files {
			if want[f.Domain] {
				out = append(out, f.Data...)
			}
		}
		return out
	}
	spFiles, dpFiles := sdr.SingleFiles(cfg), sdr.DoubleFiles(cfg)
	for _, study := range []struct {
		corpus string
		algs   []Algorithm
		src    []byte
	}{
		{"SP-ISABEL", []Algorithm{SPspeed, SPratio, SPbalance, Auto32}, domainBytes(spFiles, "ISABEL")},
		{"DP-Simulation", []Algorithm{DPspeed, DPratio, DPbalance, Auto64}, domainBytes(dpFiles, "Simulation")},
		{"DP-mixed", []Algorithm{DPspeed, DPratio, DPbalance, Auto64}, domainBytes(dpFiles, "Instrument", "Simulation", "Climate-DP", "Cosmology-DP")},
	} {
		for _, alg := range study.algs {
			src := study.src
			blob, err := Compress(alg, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			mbps, apo, ampo, ops := measureCoreOp(t, len(src), func() {
				if _, err := Compress(alg, src, nil); err != nil {
					t.Fatal(err)
				}
			})
			report.Results = append(report.Results, coreBenchResult{
				Algorithm: alg.String(), Op: "compress", Corpus: study.corpus, PayloadBytes: len(src), Ops: ops,
				MBPerS: mbps, AllocsPerOp: apo, AllocMBPerOp: ampo, CompressedBytes: len(blob),
			})
			t.Logf("%s %s compress: %.1f MB/s, ratio %.3f", study.corpus, alg, mbps, float64(len(src))/float64(len(blob)))
		}
	}

	for _, r := range report.Results {
		if r.Corpus != "" {
			continue // study rows have no pre-refactor baseline
		}
		for _, base := range report.Baseline {
			if base.Algorithm == r.Algorithm && base.Op == r.Op {
				d := coreBenchDelta{
					Algorithm:      r.Algorithm,
					Op:             r.Op,
					MBPerSDeltaPct: (r.MBPerS/base.MBPerS - 1) * 100,
					AllocsDeltaPct: (r.AllocsPerOp/base.AllocsPerOp - 1) * 100,
				}
				report.Comparison = append(report.Comparison, d)
				t.Logf("%s %s vs baseline: %+.1f%% MB/s, %+.1f%% allocs/op", r.Algorithm, r.Op, d.MBPerSDeltaPct, d.AllocsDeltaPct)
			}
		}
	}

	// Accumulate the perf trajectory: carry the previous file's history
	// forward and append this emit's summary (default-corpus compress
	// MB/s per algorithm, windowed variants included).
	var prev coreBenchReport
	if raw, err := os.ReadFile("BENCH_core.json"); err == nil {
		if err := json.Unmarshal(raw, &prev); err != nil {
			t.Logf("existing BENCH_core.json unparseable, starting history fresh: %v", err)
		}
	}
	entry := coreBenchHistory{
		SHA:            gitHeadSHA(),
		Date:           time.Now().Format("2006-01-02"),
		CompressMBPerS: map[string]float64{},
	}
	for _, r := range report.Results {
		if r.Op == "compress" && r.Corpus == "" {
			entry.CompressMBPerS[r.Algorithm] = math.Round(r.MBPerS*10) / 10
		}
	}
	// Re-emitting at the same commit refreshes that commit's entry rather
	// than stacking duplicates.
	hist := prev.History
	if n := len(hist); n > 0 && hist[n-1].SHA == entry.SHA {
		hist = hist[:n-1]
	}
	report.History = append(hist, entry)

	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// Only a run that names this test (make bench-core) rewrites the
	// committed report; a plain go test ./... measures, logs and stops.
	if f := flag.Lookup("test.run"); f == nil || !strings.Contains(f.Value.String(), t.Name()) {
		t.Logf("BENCH_core.json left unchanged: -run does not name %s", t.Name())
		return
	}
	if err := os.WriteFile("BENCH_core.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
