package fpcompress

// This file holds one testing.B benchmark per evaluation artifact of the
// paper (Table 1 and Figures 8-19), plus per-transform and ablation
// benchmarks for the design choices DESIGN.md calls out.
//
// Figure benchmarks measure the real Go implementations' wall-clock
// throughput (bytes/sec as reported by -benchmem output) over a sample of
// the figure's dataset and attach two custom metrics: "ratio" (the real
// compression ratio) and, for GPU figures, "modelGB/s" (the gpusim-modeled
// device throughput used on the figure's axis). The full 90/20-file runs
// with Pareto fronts are produced by cmd/fpcbench.

import (
	"fmt"
	"sync"
	"testing"

	"fpcompress/internal/container"
	"fpcompress/internal/core"
	"fpcompress/internal/eval"
	"fpcompress/internal/gpusim"
	"fpcompress/internal/sdr"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// benchSample returns a few representative files per precision (one per
// domain), generated once.
var benchSample = struct {
	once   sync.Once
	single [][]byte
	double [][]byte
}{}

func sampleFiles(prec sdr.Precision) [][]byte {
	benchSample.once.Do(func() {
		cfg := sdr.Config{ValuesPerFile: 1 << 16}
		seen := map[string]bool{}
		for _, f := range sdr.SingleFiles(cfg) {
			if !seen[f.Domain] {
				seen[f.Domain] = true
				benchSample.single = append(benchSample.single, f.Data)
			}
		}
		seen = map[string]bool{}
		for _, f := range sdr.DoubleFiles(cfg) {
			if !seen[f.Domain] {
				seen[f.Domain] = true
				benchSample.double = append(benchSample.double, f.Data)
			}
		}
	})
	if prec == sdr.Single {
		return benchSample.single
	}
	return benchSample.double
}

// benchFigure runs the figure's two algorithms over its dataset sample.
func benchFigure(b *testing.B, figID int) {
	fig, err := eval.FigureByID(figID)
	if err != nil {
		b.Fatal(err)
	}
	files := sampleFiles(fig.Precision)
	var dev *gpusim.Device
	if fig.Device != "cpu" {
		d, err := gpusim.DeviceByName(fig.Device)
		if err != nil {
			b.Fatal(err)
		}
		dev = &d
	}
	subjects, err := eval.OurSubjects(fig.Precision)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range subjects {
		s := s
		b.Run(s.Name, func(b *testing.B) {
			total := 0
			for _, f := range files {
				total += len(f)
			}
			b.SetBytes(int64(total))
			var encLen int
			for i := 0; i < b.N; i++ {
				encLen = 0
				for _, f := range files {
					enc, err := s.Compress(f)
					if err != nil {
						b.Fatal(err)
					}
					if fig.Decomp {
						if _, err := s.Decompress(enc); err != nil {
							b.Fatal(err)
						}
					}
					encLen += len(enc)
				}
			}
			b.ReportMetric(float64(total)/float64(encLen), "ratio")
			if dev != nil && s.Model != nil {
				k := s.Model.Compress
				in, out := total*64, encLen*64 // paper-scale amortization
				if fig.Decomp {
					k = s.Model.Decompress
					in, out = out, in
				}
				b.ReportMetric(dev.ThroughputGBps(k, total*64, in, out), "modelGB/s")
			}
		})
	}
}

func BenchmarkFigure08_RTX4090_SP_Compress(b *testing.B)   { benchFigure(b, 8) }
func BenchmarkFigure09_RTX4090_SP_Decompress(b *testing.B) { benchFigure(b, 9) }
func BenchmarkFigure10_A100_SP_Compress(b *testing.B)      { benchFigure(b, 10) }
func BenchmarkFigure11_A100_SP_Decompress(b *testing.B)    { benchFigure(b, 11) }
func BenchmarkFigure12_CPU_SP_Compress(b *testing.B)       { benchFigure(b, 12) }
func BenchmarkFigure13_CPU_SP_Decompress(b *testing.B)     { benchFigure(b, 13) }
func BenchmarkFigure14_RTX4090_DP_Compress(b *testing.B)   { benchFigure(b, 14) }
func BenchmarkFigure15_RTX4090_DP_Decompress(b *testing.B) { benchFigure(b, 15) }
func BenchmarkFigure16_A100_DP_Compress(b *testing.B)      { benchFigure(b, 16) }
func BenchmarkFigure17_A100_DP_Decompress(b *testing.B)    { benchFigure(b, 17) }
func BenchmarkFigure18_CPU_DP_Compress(b *testing.B)       { benchFigure(b, 18) }
func BenchmarkFigure19_CPU_DP_Decompress(b *testing.B)     { benchFigure(b, 19) }

// BenchmarkTable1 measures every comparison compressor (Table 1) on one
// single-precision sample (double-precision for the FP64-only codes).
func BenchmarkTable1(b *testing.B) {
	spSubjects, err := eval.BaselineSubjects(sdr.Single, false)
	if err != nil {
		b.Fatal(err)
	}
	gpuSP, err := eval.BaselineSubjects(sdr.Single, true)
	if err != nil {
		b.Fatal(err)
	}
	dpOnly, err := eval.BaselineSubjects(sdr.Double, false)
	if err != nil {
		b.Fatal(err)
	}
	subjects := append(append([]eval.Subject{}, spSubjects...), gpuSP...)
	seen := map[string]bool{}
	for _, s := range subjects {
		seen[s.Name] = true
	}
	sp := sampleFiles(sdr.Single)[0]
	dp := sampleFiles(sdr.Double)[0]
	run := func(s eval.Subject, data []byte) {
		b.Run(s.Name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var encLen int
			for i := 0; i < b.N; i++ {
				enc, err := s.Compress(data)
				if err != nil {
					b.Fatal(err)
				}
				encLen = len(enc)
			}
			b.ReportMetric(float64(len(data))/float64(encLen), "ratio")
		})
	}
	done := map[string]bool{}
	for _, s := range subjects {
		if !done[s.Name] {
			done[s.Name] = true
			run(s, sp)
		}
	}
	for _, s := range dpOnly {
		if !done[s.Name] {
			done[s.Name] = true
			run(s, dp) // FPC and pFPC
		}
	}
}

// BenchmarkTransforms measures each stage in isolation on one 16 kB chunk,
// the granularity everything but FCM operates at.
func BenchmarkTransforms(b *testing.B) {
	spChunk := sampleFiles(sdr.Single)[0][:16384]
	dpChunk := sampleFiles(sdr.Double)[0][:16384]
	cases := []struct {
		tr   transforms.Transform
		data []byte
	}{
		{transforms.DiffMS{Word: wordio.W32}, spChunk},
		{transforms.DiffMS{Word: wordio.W64}, dpChunk},
		{transforms.Bit{Word: wordio.W32}, spChunk},
		{transforms.MPLG{Word: wordio.W32}, spChunk},
		{transforms.MPLG{Word: wordio.W64}, dpChunk},
		{transforms.RZE{}, spChunk},
		{transforms.RAZE{}, dpChunk},
		{transforms.RARE{}, dpChunk},
		{transforms.FCM{}, dpChunk},
	}
	for _, c := range cases {
		c := c
		b.Run(c.tr.Name()+"/Forward", func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			for i := 0; i < b.N; i++ {
				c.tr.ForwardInto(nil, c.data)
			}
		})
		enc := c.tr.ForwardInto(nil, c.data)
		b.Run(c.tr.Name()+"/Inverse", func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			for i := 0; i < b.N; i++ {
				if _, err := c.tr.InverseInto(nil, enc, transforms.NoLimit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblations quantifies the design choices: each sub-benchmark
// removes or replaces one stage of a paper pipeline and reports the
// resulting ratio, so the contribution of BIT, RZE's bitmap recursion,
// FCM, and RARE is visible directly.
func BenchmarkAblations(b *testing.B) {
	sp := sampleFiles(sdr.Single)
	dp := sampleFiles(sdr.Double)
	pipelines := []struct {
		name string
		p    transforms.Pipeline
		data [][]byte
		pre  *transforms.FCM
	}{
		{"SPratio-full", transforms.Pipeline{transforms.DiffMS{Word: wordio.W32}, transforms.Bit{Word: wordio.W32}, transforms.RZE{}}, sp, nil},
		{"SPratio-noBIT", transforms.Pipeline{transforms.DiffMS{Word: wordio.W32}, transforms.RZE{}}, sp, nil},
		{"SPratio-noDIFFMS", transforms.Pipeline{transforms.Bit{Word: wordio.W32}, transforms.RZE{}}, sp, nil},
		{"SPratio-RZEword", transforms.Pipeline{transforms.DiffMS{Word: wordio.W32}, transforms.Bit{Word: wordio.W32}, transforms.RZE{Granularity: 4}}, sp, nil},
		{"DPratio-full", transforms.Pipeline{transforms.DiffMS{Word: wordio.W64}, transforms.RAZE{}, transforms.RARE{}}, dp, &transforms.FCM{}},
		{"DPratio-noFCM", transforms.Pipeline{transforms.DiffMS{Word: wordio.W64}, transforms.RAZE{}, transforms.RARE{}}, dp, nil},
		{"DPratio-noRARE", transforms.Pipeline{transforms.DiffMS{Word: wordio.W64}, transforms.RAZE{}}, dp, &transforms.FCM{}},
		{"DPratio-RZEnotRAZE", transforms.Pipeline{transforms.DiffMS{Word: wordio.W64}, transforms.RZE{}}, dp, &transforms.FCM{}},
		{"DPspeed-full", transforms.Pipeline{transforms.DiffMS{Word: wordio.W64}, transforms.MPLG{Word: wordio.W64}}, dp, nil},
		{"DPspeed-noDIFFMS", transforms.Pipeline{transforms.MPLG{Word: wordio.W64}}, dp, nil},
	}
	for _, pl := range pipelines {
		pl := pl
		b.Run(pl.name, func(b *testing.B) {
			a := &core.Algorithm{ID: core.ID(99), Word: wordio.W64, Pre: pl.pre, Chunked: pl.p}
			total := 0
			for _, f := range pl.data {
				total += len(f)
			}
			b.SetBytes(int64(total))
			var encLen int
			for i := 0; i < b.N; i++ {
				encLen = 0
				for _, f := range pl.data {
					encLen += len(a.Compress(f, container.Params{}))
				}
			}
			b.ReportMetric(float64(total)/float64(encLen), "ratio")
		})
	}
}

// BenchmarkAuto measures the adaptive modes against their speed variants
// over the concatenated per-domain sample: the selection overhead budget
// is compress throughput within ~1.3x of the speed variant. Run focused
// via `make bench-auto`.
func BenchmarkAuto(b *testing.B) {
	for _, tc := range []struct {
		name string
		alg  Algorithm
		prec sdr.Precision
	}{
		{"Auto32", Auto32, sdr.Single},
		{"SPspeed", SPspeed, sdr.Single},
		{"Auto64", Auto64, sdr.Double},
		{"DPspeed", DPspeed, sdr.Double},
	} {
		var src []byte
		for _, f := range sampleFiles(tc.prec) {
			src = append(src, f...)
		}
		b.Run(tc.name+"-compress", func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			var encLen int
			for i := 0; i < b.N; i++ {
				blob, err := Compress(tc.alg, src, nil)
				if err != nil {
					b.Fatal(err)
				}
				encLen = len(blob)
			}
			b.ReportMetric(float64(len(src))/float64(encLen), "ratio")
		})
		if tc.alg != Auto32 && tc.alg != Auto64 {
			continue
		}
		blob, err := Compress(tc.alg, src, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"-decompress", func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := Decompress(blob, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFCMWindow sweeps the same-hash match window (the paper's
// "preceding four pairs", §3.2) on the repeat-heavy MPI domain.
func BenchmarkFCMWindow(b *testing.B) {
	var mpi []byte
	for _, f := range sdr.DoubleFiles(sdr.Config{ValuesPerFile: 1 << 16}) {
		if f.Domain == "MPI" {
			mpi = f.Data
			break
		}
	}
	for _, win := range []int{1, 2, 4, 8, 16} {
		win := win
		b.Run(winName(win), func(b *testing.B) {
			a := &core.Algorithm{ID: core.ID(99), Word: wordio.W64,
				Pre: &transforms.FCM{Window: win},
				Chunked: transforms.Pipeline{
					transforms.DiffMS{Word: wordio.W64},
					transforms.RAZE{}, transforms.RARE{},
				}}
			b.SetBytes(int64(len(mpi)))
			var encLen int
			for i := 0; i < b.N; i++ {
				encLen = len(a.Compress(mpi, container.Params{}))
			}
			b.ReportMetric(float64(len(mpi))/float64(encLen), "ratio")
		})
	}
}

func winName(w int) string { return fmt.Sprintf("window-%02d", w) }

// BenchmarkMPLGSubchunk sweeps the subchunk size (the paper's 512 bytes,
// chosen so each subchunk maps to one warp, §3.1).
func BenchmarkMPLGSubchunk(b *testing.B) {
	data := sampleFiles(sdr.Single)[0]
	for _, sub := range []int{64, 128, 512, 2048, 16384} {
		sub := sub
		b.Run(byteSize(sub), func(b *testing.B) {
			a := &core.Algorithm{ID: core.ID(98), Word: wordio.W32,
				Chunked: transforms.Pipeline{
					transforms.DiffMS{Word: wordio.W32},
					transforms.MPLG{Word: wordio.W32, Subchunk: sub},
				}}
			b.SetBytes(int64(len(data)))
			var encLen int
			for i := 0; i < b.N; i++ {
				encLen = len(a.Compress(data, container.Params{}))
			}
			b.ReportMetric(float64(len(data))/float64(encLen), "ratio")
		})
	}
}

// BenchmarkChunkSizes is the ablation for the paper's 16 kB chunk choice.
func BenchmarkChunkSizes(b *testing.B) {
	data := sampleFiles(sdr.Single)[0]
	a, _ := core.New(core.SPratio)
	for _, cs := range []int{1024, 4096, 16384, 65536, 262144} {
		cs := cs
		b.Run(byteSize(cs), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var encLen int
			for i := 0; i < b.N; i++ {
				encLen = len(a.Compress(data, container.Params{ChunkSize: cs}))
			}
			b.ReportMetric(float64(len(data))/float64(encLen), "ratio")
		})
	}
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// BenchmarkPublicAPI measures the end-to-end public entry points.
func BenchmarkPublicAPI(b *testing.B) {
	data := sampleFiles(sdr.Single)[0]
	for _, alg := range []Algorithm{SPspeed, SPratio} {
		alg := alg
		blob, _ := Compress(alg, data, nil)
		b.Run(alg.String()+"/Compress", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := Compress(alg, data, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(alg.String()+"/Decompress", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := Decompress(blob, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Decoding into a fresh output against into a reused one: the gap is
	// the cost of the fresh output's memory.
	for _, tc := range []struct {
		alg  Algorithm
		data []byte
	}{
		{SPspeed, sampleInput(sdr.Single, 8<<20)},
		{DPratio, sampleInput(sdr.Double, 2<<20)},
	} {
		blob, err := Compress(tc.alg, tc.data, nil)
		if err != nil {
			b.Fatal(err)
		}
		name := tc.alg.String() + "/" + byteSize(len(tc.data))
		b.Run(name+"/Decompress", func(b *testing.B) {
			b.SetBytes(int64(len(tc.data)))
			for i := 0; i < b.N; i++ {
				if _, err := Decompress(blob, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/AppendDecompressReused", func(b *testing.B) {
			b.SetBytes(int64(len(tc.data)))
			var out []byte
			for i := 0; i < b.N; i++ {
				if out, err = AppendDecompress(out[:0], blob, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		// One worker: the output is grown before the chunks decode, and
		// DPratio's FCM stream resolves after each chunk.
		b.Run(name+"/Decompress1w", func(b *testing.B) {
			b.SetBytes(int64(len(tc.data)))
			opts := &Options{Parallelism: 1}
			for i := 0; i < b.N; i++ {
				if _, err := Decompress(blob, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sampleInput repeats the sample files of one precision up to n bytes.
func sampleInput(prec sdr.Precision, n int) []byte {
	out := make([]byte, 0, n)
	for files := sampleFiles(prec); len(out) < n; {
		for _, f := range files {
			out = append(out, f[:min(len(f), n-len(out))]...)
		}
	}
	return out
}
