package transforms

import (
	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// Bit implements the BIT transformation (paper §3.2, Figure 4): a bit
// transposition (bit shuffle) that groups the first (most significant) bit
// of every word together, then all second bits, and so on. After DIFFMS the
// words have many leading zeros, so transposition produces long runs of zero
// bytes in the planes holding the high bits — exactly the input RZE wants.
//
// Following the paper's warp-level parallelization, words are processed in
// square blocks (32 words for 32-bit data, 64 words for 64-bit data); each
// block is a bit-matrix transpose. The transposed rows are laid out
// plane-major across the whole chunk so that the zero runs from different
// blocks join up. Words beyond the last full block (and trailing bytes that
// do not fill a word) are copied verbatim; this only ever affects the final
// chunk of an input.
//
// BIT is size-preserving and is its own inverse up to the plane-major
// re-layout.
type Bit struct {
	Word wordio.WordSize
}

// Name implements Transform.
func (b Bit) Name() string {
	if b.Word == wordio.W32 {
		return "BIT32"
	}
	return "BIT64"
}

// Forward implements Transform.
func (b Bit) Forward(src []byte) []byte {
	return b.ForwardInto(nil, src)
}

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract).
func (b Bit) ForwardInto(dst, src []byte) []byte {
	base := len(dst)
	dst = Grow(dst, len(src))
	out := dst[base:]
	n := 0 // bytes covered by full blocks; the rest is copied verbatim
	if b.Word == wordio.W32 {
		sw := wordio.In32(src)
		nb := len(sw.W) / 32
		n = nb * 32 * 4
		ow := wordio.Out32(out[:n])
		simd.BitFwd32(ow.W, sw.W, nb)
		ow.Done()
		sw.Done()
	} else {
		sw := wordio.In64(src)
		nb := len(sw.W) / 64
		n = nb * 64 * 8
		ow := wordio.Out64(out[:n])
		simd.BitFwd64(ow.W, sw.W, nb)
		ow.Done()
		sw.Done()
	}
	copy(out[n:], src[n:])
	return dst
}

// InverseLimit implements Transform. BIT is size-preserving, so the budget
// bounds the encoded length itself.
func (b Bit) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return b.InverseInto(nil, enc, maxDecoded)
}

// Inverse implements Transform.
func (b Bit) Inverse(enc []byte) ([]byte, error) {
	return b.InverseInto(nil, enc, NoLimit)
}

// InverseInto implements Transform (see the package comment for the dst
// ownership contract).
func (b Bit) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	if maxDecoded >= 0 && len(enc) > maxDecoded {
		return nil, Corruptf("BIT: %d bytes exceed decode budget %d", len(enc), maxDecoded)
	}
	base := len(dst)
	dst = Grow(dst, len(enc))
	out := dst[base:]
	n := 0
	if b.Word == wordio.W32 {
		ew := wordio.In32(enc)
		nb := len(ew.W) / 32
		n = nb * 32 * 4
		ow := wordio.Out32(out[:n])
		simd.BitInv32(ow.W, ew.W, nb)
		ow.Done()
		ew.Done()
	} else {
		ew := wordio.In64(enc)
		nb := len(ew.W) / 64
		n = nb * 64 * 8
		ow := wordio.Out64(out[:n])
		simd.BitInv64(ow.W, ew.W, nb)
		ow.Done()
		ew.Done()
	}
	copy(out[n:], enc[n:])
	return dst, nil
}
