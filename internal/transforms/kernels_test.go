package transforms

import (
	"bytes"
	"math"
	"testing"

	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// Every word kernel takes its words through wordio's copy-in/copy-out:
// aligned buffers are aliased, misaligned ones copied into pooled
// scratch (and purego builds always copy). These differential tests pin
// the two routes to the same bytes by sliding the same input across every
// offset 0..7 of an aligned backing array — offset 0 aliases, 1..7 force
// progressively misaligned buffers (offset 4 is aligned for 32-bit words
// but not 64-bit).

// kernelTransforms is every transform whose ForwardInto/InverseInto runs a
// word kernel, at both word sizes where applicable.
func kernelTransforms() []Transform {
	return []Transform{
		DiffMS{Word: wordio.W32},
		DiffMS{Word: wordio.W64},
		Bit{Word: wordio.W32},
		Bit{Word: wordio.W64},
		MPLG{Word: wordio.W32},
		MPLG{Word: wordio.W64},
		RZE{},
		RAZE{},
		RARE{},
		FCM{},
		FCMW{},
	}
}

// kernelData builds n bytes mixing the regimes the kernels special-case:
// smooth floats (structured high bits), zero runs (RZE bulk skip), repeated
// words (FCM matches, RARE repeats), and pseudorandom bytes (per-bit slow
// lanes).
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
// sizes, and degenerate sizes.
var kernelLengths = []int{0, 1, 3, 4, 7, 8, 11, 512, 515, 16384, 16387, 16389}

// atOffset returns a copy of data positioned at byte offset off of a
// freshly allocated (hence word-aligned) backing array.
func atOffset(data []byte, off int) []byte {
	back := make([]byte, off+len(data))
	copy(back[off:], data)
	return back[off : off+len(data)]
}

// TestKernelForwardOffsets: the encoding must not depend on src alignment,
// so every offset's ForwardInto output must be byte-identical to offset
// 0's (which aliases the source words).
func TestKernelForwardOffsets(t *testing.T) {
	for _, tr := range kernelTransforms() {
		t.Run(tr.Name(), func(t *testing.T) {
			for _, n := range kernelLengths {
				data := kernelData(n)
				want := tr.ForwardInto(nil, atOffset(data, 0))
				for off := 1; off <= 7; off++ {
					got := tr.ForwardInto(nil, atOffset(data, off))
					if !bytes.Equal(got, want) {
						t.Fatalf("len %d: forward at src offset %d differs from aligned (lens %d vs %d)",
							n, off, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestKernelInverseOffsets: decoding must not depend on the alignment of
// the encoded input or of the append position in dst. A dst of length p
// (with capacity already sufficient, so no reallocation re-aligns it)
// places the decode region at offset p of an aligned array, forcing the
// copy-out path for p not a multiple of the word size; the decoded bytes
// and the preserved prefix must be exact either way.
func TestKernelInverseOffsets(t *testing.T) {
	for _, tr := range kernelTransforms() {
		t.Run(tr.Name(), func(t *testing.T) {
			for _, n := range kernelLengths {
				data := kernelData(n)
				enc := tr.ForwardInto(nil, data)
				for off := 0; off <= 7; off++ {
					got, err := tr.InverseInto(nil, atOffset(enc, off), n)
					if err != nil {
						t.Fatalf("len %d: inverse at enc offset %d: %v", n, off, err)
					}
					if !bytes.Equal(got, data) {
						t.Fatalf("len %d: inverse at enc offset %d differs from src", n, off)
					}
				}
				for p := 0; p <= 7; p++ {
					back := make([]byte, p, p+n+64)
					for i := range back {
						back[i] = 0xa5
					}
					got, err := tr.InverseInto(back, enc, n)
					if err != nil {
						t.Fatalf("len %d: inverse with dst prefix %d: %v", n, p, err)
					}
					if len(got) != p+n || !bytes.Equal(got[p:], data) {
						t.Fatalf("len %d: inverse with dst prefix %d decoded wrong bytes", n, p)
					}
					for i := 0; i < p; i++ {
						if got[i] != 0xa5 {
							t.Fatalf("len %d: inverse with dst prefix %d clobbered prefix byte %d", n, p, i)
						}
					}
				}
			}
		})
	}
}

// TestKernelForwardAppend: ForwardInto with a non-empty dst must preserve
// the prefix and append exactly the bytes a nil-dst ForwardInto produces,
// for every append offset (the packers compute bit positions relative to
// the region start, not the buffer start).
func TestKernelForwardAppend(t *testing.T) {
	for _, tr := range kernelTransforms() {
		t.Run(tr.Name(), func(t *testing.T) {
			for _, n := range []int{0, 11, 515, 16387} {
				data := kernelData(n)
				want := tr.ForwardInto(nil, data)
				for p := 0; p <= 7; p++ {
					back := make([]byte, p, p+len(want)+64)
					for i := range back {
						back[i] = 0x5a
					}
					got := tr.ForwardInto(back, data)
					if len(got) != p+len(want) || !bytes.Equal(got[p:], want) {
						t.Fatalf("len %d: forward with dst prefix %d differs from fresh encode", n, p)
					}
					for i := 0; i < p; i++ {
						if got[i] != 0x5a {
							t.Fatalf("len %d: forward with dst prefix %d clobbered prefix byte %d", n, p, i)
						}
					}
				}
			}
		})
	}
}

// TestKernelScalarVsSIMD force-compares the SIMD dispatch path against the
// scalar reference in one process: every ForwardInto encoding and
// InverseInto decoding must be byte-identical with the SIMD kernels
// enabled and disabled (simd.Disable is the programmatic form of the
// FPC_DISABLE_SIMD=1 knob). On builds with no SIMD (noasm, purego,
// other GOARCH) both runs take the scalar path and the test is a no-op
// check.
func TestKernelScalarVsSIMD(t *testing.T) {
	if simd.Available() == "scalar" {
		t.Skip("no SIMD kernels in this build")
	}
	defer simd.Enable()
	for _, tr := range kernelTransforms() {
		t.Run(tr.Name(), func(t *testing.T) {
			for _, n := range kernelLengths {
				data := kernelData(n)
				simd.Enable()
				encSIMD := tr.ForwardInto(nil, data)
				simd.Disable()
				encScalar := tr.ForwardInto(nil, data)
				if !bytes.Equal(encSIMD, encScalar) {
					t.Fatalf("len %d: SIMD and scalar encodings differ (lens %d vs %d)",
						n, len(encSIMD), len(encScalar))
				}
				simd.Enable()
				decSIMD, err := tr.InverseInto(nil, encSIMD, n)
				if err != nil {
					t.Fatalf("len %d: SIMD inverse: %v", n, err)
				}
				simd.Disable()
				decScalar, err := tr.InverseInto(nil, encSIMD, n)
				if err != nil {
					t.Fatalf("len %d: scalar inverse: %v", n, err)
				}
				if !bytes.Equal(decSIMD, data) || !bytes.Equal(decScalar, data) {
					t.Fatalf("len %d: inverse mismatch (simd ok=%v scalar ok=%v)",
						n, bytes.Equal(decSIMD, data), bytes.Equal(decScalar, data))
				}
			}
		})
	}
}
