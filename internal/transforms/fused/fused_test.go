package fused

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"testing"

	"fpcompress/internal/simd"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// The fused kernels must be byte-identical to their stage-by-stage
// reference pipelines for every input and accept exactly the same
// encodings. These differential tests mirror the transforms package's
// kernel harness: the same mixed-regime data slid across every offset
// 0..7 of an aligned backing array, so the fused pass is pinned against
// the reference pipeline on both its aliased words (offset 0) and its
// copy-in/copy-out scratch (misaligned offsets).

// The stage-by-stage pipelines the kernels must match: the oracle of
// every test here.
var (
	refSpeed32    = transforms.Pipeline{transforms.DiffMS{Word: wordio.W32}, transforms.MPLG{Word: wordio.W32}}
	refSpeed64    = transforms.Pipeline{transforms.DiffMS{Word: wordio.W64}, transforms.MPLG{Word: wordio.W64}}
	refRatio32    = transforms.Pipeline{transforms.DiffMS{Word: wordio.W32}, transforms.Bit{Word: wordio.W32}, transforms.RZE{}}
	refRatio64    = transforms.Pipeline{transforms.DiffMS{Word: wordio.W64}, transforms.RAZE{}, transforms.RARE{}}
	refFCMRatio64 = transforms.Pipeline{transforms.FCMW{}}
)

// fusedKernel pairs a fused kernel with its reference pipeline and the
// word size of the data it is built for.
type fusedKernel struct {
	transforms.Transform
	ref  transforms.Pipeline
	word wordio.WordSize
}

func kernels() []fusedKernel {
	return []fusedKernel{
		{sharedSpeed32, refSpeed32, wordio.W32},
		{sharedSpeed64, refSpeed64, wordio.W64},
		{sharedRatio32, refRatio32, wordio.W32},
		{sharedRatio64, refRatio64, wordio.W64},
		{sharedFCMRatio64, refFCMRatio64, wordio.W64},
	}
}

// kernelData builds n bytes mixing the regimes the kernels special-case:
// smooth floats (structured high bits), zero runs, repeated words, and
// pseudorandom bytes (transforms.kernelData's recipe).
func kernelData(n int) []byte {
	b := make([]byte, n)
	q := n / 4
	for i := 0; i+8 <= q; i += 8 {
		wordio.PutU64(b[i:], 0, math.Float64bits(300+math.Sin(float64(i)/128)))
	}
	// b[q:2q] stays zero.
	for i := 2 * q; i+8 <= 3*q; i += 8 {
		wordio.PutU64(b[i:], 0, 0x40f8c0ffee000000)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 3 * q; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

// kernelLengths covers word multiples, straddling tails for both word
// sizes, subchunk boundaries, and degenerate sizes.
var kernelLengths = []int{0, 1, 3, 4, 7, 8, 11, 512, 515, 16384, 16387, 16389}

// atOffset returns a copy of data positioned at byte offset off of a
// freshly allocated (hence word-aligned) backing array.
func atOffset(data []byte, off int) []byte {
	back := make([]byte, off+len(data))
	copy(back[off:], data)
	return back[off : off+len(data)]
}

// TestFusedForwardOffsets: at every offset and length, the fused encoding
// must equal the reference pipeline's byte for byte.
func TestFusedForwardOffsets(t *testing.T) {
	for _, k := range kernels() {
		t.Run(k.Name(), func(t *testing.T) {
			ref := k.ref
			for _, n := range kernelLengths {
				data := kernelData(n)
				want := ref.ForwardInto(nil, data)
				for off := 0; off <= 7; off++ {
					got := k.ForwardInto(nil, atOffset(data, off))
					if !bytes.Equal(got, want) {
						t.Fatalf("len %d: fused forward at src offset %d differs from reference (lens %d vs %d)",
							n, off, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestFusedInverseOffsets: the fused decoder must reconstruct reference
// encodings (and its own — the same bytes) at every enc offset, and must
// preserve a dst prefix of every length, forcing its internal fallback
// for prefixes that misalign the decode region.
func TestFusedInverseOffsets(t *testing.T) {
	for _, k := range kernels() {
		t.Run(k.Name(), func(t *testing.T) {
			ref := k.ref
			for _, n := range kernelLengths {
				data := kernelData(n)
				enc := ref.ForwardInto(nil, data)
				for off := 0; off <= 7; off++ {
					got, err := k.InverseInto(nil, atOffset(enc, off), n)
					if err != nil {
						t.Fatalf("len %d: fused inverse at enc offset %d: %v", n, off, err)
					}
					if !bytes.Equal(got, data) {
						t.Fatalf("len %d: fused inverse at enc offset %d differs from src", n, off)
					}
				}
				for p := 0; p <= 7; p++ {
					back := make([]byte, p, p+n+64)
					for i := range back {
						back[i] = 0xa5
					}
					got, err := k.InverseInto(back, enc, n)
					if err != nil {
						t.Fatalf("len %d: fused inverse with dst prefix %d: %v", n, p, err)
					}
					if len(got) != p+n || !bytes.Equal(got[p:], data) {
						t.Fatalf("len %d: fused inverse with dst prefix %d decoded wrong bytes", n, p)
					}
					for i := 0; i < p; i++ {
						if got[i] != 0xa5 {
							t.Fatalf("len %d: fused inverse with dst prefix %d clobbered prefix byte %d", n, p, i)
						}
					}
				}
			}
		})
	}
}

// TestFusedForwardAppend: ForwardInto with a non-empty dst must preserve
// the prefix and append exactly a fresh encode, at every append offset.
func TestFusedForwardAppend(t *testing.T) {
	for _, k := range kernels() {
		t.Run(k.Name(), func(t *testing.T) {
			for _, n := range []int{0, 11, 515, 16387} {
				data := kernelData(n)
				want := k.ref.ForwardInto(nil, data)
				for p := 0; p <= 7; p++ {
					back := make([]byte, p, p+len(want)+64)
					for i := range back {
						back[i] = 0x5a
					}
					got := k.ForwardInto(back, data)
					if len(got) != p+len(want) || !bytes.Equal(got[p:], want) {
						t.Fatalf("len %d: fused forward with dst prefix %d differs from reference encode", n, p)
					}
					for i := 0; i < p; i++ {
						if got[i] != 0x5a {
							t.Fatalf("len %d: fused forward with dst prefix %d clobbered prefix byte %d", n, p, i)
						}
					}
				}
			}
		})
	}
}

// TestFusedBudgets: the fused decoder must enforce the same decode-budget
// acceptance set as the reference pipeline — accept at the exact decoded
// length, reject one byte under it and corrupt length prefixes.
func TestFusedBudgets(t *testing.T) {
	for _, k := range kernels() {
		t.Run(k.Name(), func(t *testing.T) {
			for _, n := range []int{11, 515, 16387} {
				data := kernelData(n)
				enc := k.ForwardInto(nil, data)
				if _, err := k.InverseInto(nil, enc, n); err != nil {
					t.Fatalf("len %d: exact budget rejected: %v", n, err)
				}
				if out, _ := k.InverseInto(nil, enc, transforms.NoLimit); !bytes.Equal(out, data) {
					t.Fatalf("len %d: NoLimit decode differs", n)
				}
				if _, err := k.InverseInto(nil, enc, n-1); !errors.Is(err, transforms.ErrCorrupt) {
					t.Fatalf("len %d: budget n-1 accepted (err=%v)", n, err)
				}
				refErr := func(e []byte, budget int) bool {
					_, err := k.ref.InverseInto(nil, e, budget)
					return err != nil
				}
				// Truncations must fail on both paths (never panic, never
				// succeed on one path only).
				for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
					if cut >= len(enc) {
						continue
					}
					_, err := k.InverseInto(nil, enc[:cut], n)
					if (err != nil) != refErr(enc[:cut], n) {
						t.Fatalf("len %d: truncation to %d: fused err=%v, reference disagrees", n, cut, err)
					}
					if err != nil && !errors.Is(err, transforms.ErrCorrupt) {
						t.Fatalf("len %d: truncation to %d: error %v not ErrCorrupt", n, cut, err)
					}
				}
			}
		})
	}
}

// TestFusedMatch: Match must map exactly the fused pipelines to kernels
// and hand every other pipeline back unchanged.
func TestFusedMatch(t *testing.T) {
	d32 := transforms.DiffMS{Word: wordio.W32}
	d64 := transforms.DiffMS{Word: wordio.W64}
	cases := []struct {
		p    transforms.Pipeline
		want string
	}{
		{transforms.Pipeline{d32, transforms.MPLG{Word: wordio.W32}}, "FUSED(DIFFMS32+MPLG32)"},
		{transforms.Pipeline{d64, transforms.MPLG{Word: wordio.W64}}, "FUSED(DIFFMS64+MPLG64)"},
		{transforms.Pipeline{d32, transforms.Bit{Word: wordio.W32}, transforms.RZE{}}, "FUSED(DIFFMS32+BIT32+RZE)"},
		{transforms.Pipeline{d32, transforms.Bit{Word: wordio.W32}, transforms.RZE{Granularity: 1}}, "FUSED(DIFFMS32+BIT32+RZE)"},
		{transforms.Pipeline{d32, transforms.MPLG{Word: wordio.W64}}, ""},                // word mismatch
		{transforms.Pipeline{d32, transforms.MPLG{Word: wordio.W32, Subchunk: 256}}, ""}, // non-default subchunk
		{transforms.Pipeline{d64, transforms.RAZE{}, transforms.RARE{}}, "FUSED(DIFFMS64+RAZE+RARE)"},
		{transforms.Pipeline{transforms.FCMW{}}, "FUSED(FCMW64)"},
		{transforms.Pipeline{d32, transforms.MPLG{Word: wordio.W32}, transforms.RZE{}}, ""},               // balance: not fused
		{transforms.Pipeline{transforms.FCM{}, d64, transforms.RAZE{}, transforms.RARE{}}, ""},            // whole-input FCM stage chain: not fused
		{transforms.Pipeline{transforms.FCM{Table: true}, d64, transforms.RAZE{}, transforms.RARE{}}, ""}, // unsegmented FCM chain: FCMW64 replaced it
		{transforms.Pipeline{d32, transforms.RAZE{}, transforms.RARE{}}, ""},                              // 32-bit diff: not fused
		{transforms.Pipeline{d32, transforms.Bit{Word: wordio.W32}, transforms.RZE{Granularity: 4}}, ""},  // non-byte RZE
		{transforms.Pipeline{d32}, ""},
		{transforms.Pipeline{}, ""},
	}
	for i, c := range cases {
		tr := Match(c.p)
		if c.want == "" {
			if p, ok := tr.(transforms.Pipeline); !ok || p.Name() != c.p.Name() {
				t.Fatalf("case %d: pipeline %v resolved to %s, want the pipeline itself", i, c.p.Names(), tr.Name())
			}
			continue
		}
		if _, ok := tr.(transforms.Pipeline); ok || tr.Name() != c.want {
			t.Fatalf("case %d: pipeline %v resolved to %s, want %s", i, c.p.Names(), tr.Name(), c.want)
		}
	}
}

// TestFusedGateStats: the statistics accumulated during the fused speed
// pass must equal the ones the selector would derive from a materialized
// DIFFMS stream — the byte-swapped group ORs and post-block tail for W32,
// the leading-zero histogram for W64.
func TestFusedGateStats(t *testing.T) {
	for _, n := range kernelLengths {
		data := kernelData(n)

		k32 := sharedSpeed32
		var gs GateStats
		enc := k32.ForwardStatsInto(nil, data, &gs)
		if want := refSpeed32.ForwardInto(nil, data); !bytes.Equal(enc, want) {
			t.Fatalf("len %d: stats forward differs from reference", n)
		}
		diff := (transforms.DiffMS{Word: wordio.W32}).ForwardInto(nil, data)
		dw := make([]uint32, len(diff)/4)
		for i := range dw {
			dw[i] = wordio.U32(diff, i)
		}
		nb := len(dw) / 32
		if gs.Words != len(dw) {
			t.Fatalf("len %d: gs.Words = %d, want %d", n, gs.Words, len(dw))
		}
		if len(gs.Ors) != nb*4 {
			t.Fatalf("len %d: len(gs.Ors) = %d, want %d", n, len(gs.Ors), nb*4)
		}
		for q := 0; q < nb; q++ {
			base := q * 32
			for b := 0; b < 4; b++ {
				s := base + (3-b)*8
				var or uint32
				for j := 0; j < 8; j++ {
					or |= dw[s+j]
				}
				if gs.Ors[q*4+b] != or {
					t.Fatalf("len %d: gs.Ors[%d] = %#x, want %#x", n, q*4+b, gs.Ors[q*4+b], or)
				}
			}
		}
		if !bytes.Equal(gs.Tail, diff[nb*128:]) {
			t.Fatalf("len %d: gs.Tail differs from diff tail", n)
		}

		k64 := sharedSpeed64
		var gs64 GateStats
		enc64 := k64.ForwardStatsInto(nil, data, &gs64)
		if want := refSpeed64.ForwardInto(nil, data); !bytes.Equal(enc64, want) {
			t.Fatalf("len %d: 64-bit stats forward differs from reference", n)
		}
		diff64 := (transforms.DiffMS{Word: wordio.W64}).ForwardInto(nil, data)
		var hist [65]int
		words := 0
		for i := 0; i+8 <= len(diff64); i += 8 {
			hist[bits.LeadingZeros64(wordio.U64(diff64, i/8))]++
			words++
		}
		if gs64.Words != words {
			t.Fatalf("len %d: 64-bit gs.Words = %d, want %d", n, gs64.Words, words)
		}
		if gs64.Hist != hist {
			t.Fatalf("len %d: 64-bit histogram differs", n)
		}

		// Ratio64 keeps no gate statistics; its encode over the same diff
		// stream must still be reference-identical.
		kr := sharedRatio64
		if enc, want := kr.ForwardInto(nil, data), refRatio64.ForwardInto(nil, data); !bytes.Equal(enc, want) {
			t.Fatalf("len %d: ratio64 forward differs from reference", n)
		}
	}
}

// FuzzFusedKernels differences every fused kernel against its reference
// pipeline on arbitrary chunks: forward bytes must match, round-trips
// must reconstruct, and decoding the chunk bytes as if they were an
// encoding must fail or succeed identically on both paths. On builds with
// SIMD kernels the forward/round-trip checks also run with dispatch
// disabled, pinning the SIMD and scalar fused paths to the same bytes.
func FuzzFusedKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(kernelData(515))
	f.Add(kernelData(16389))
	f.Fuzz(func(t *testing.T, chunk []byte) {
		if len(chunk) > 1<<20 {
			chunk = chunk[:1<<20]
		}
		for _, k := range kernels() {
			ref := k.ref
			enc := k.ForwardInto(nil, chunk)
			if want := ref.ForwardInto(nil, chunk); !bytes.Equal(enc, want) {
				t.Fatalf("%s: fused forward differs from reference", k.Name())
			}
			got, err := k.InverseInto(nil, enc, len(chunk))
			if err != nil {
				t.Fatalf("%s: fused round-trip: %v", k.Name(), err)
			}
			if !bytes.Equal(got, chunk) {
				t.Fatalf("%s: fused round-trip differs", k.Name())
			}
			if simd.Enabled() {
				simd.Disable()
				encScalar := k.ForwardInto(nil, chunk)
				gotScalar, errScalar := k.InverseInto(nil, enc, len(chunk))
				simd.Enable()
				if !bytes.Equal(encScalar, enc) {
					t.Fatalf("%s: scalar fused forward differs from SIMD", k.Name())
				}
				if errScalar != nil || !bytes.Equal(gotScalar, chunk) {
					t.Fatalf("%s: scalar fused round-trip differs (err=%v)", k.Name(), errScalar)
				}
			}
			// The chunk itself as hostile encoded input: both decoders must
			// agree on acceptance, and on acceptance produce the same bytes.
			fOut, fErr := k.InverseInto(nil, chunk, 1<<20)
			rOut, rErr := ref.InverseInto(nil, chunk, 1<<20)
			if (fErr == nil) != (rErr == nil) {
				t.Fatalf("%s: decode acceptance disagrees (fused err=%v, ref err=%v)", k.Name(), fErr, rErr)
			}
			if fErr == nil && !bytes.Equal(fOut, rOut) {
				t.Fatalf("%s: hostile decode bytes disagree", k.Name())
			}
			if fErr != nil && !errors.Is(fErr, transforms.ErrCorrupt) {
				t.Fatalf("%s: fused decode error %v not ErrCorrupt", k.Name(), fErr)
			}
		}
	})
}
