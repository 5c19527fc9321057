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

// Transpose32 performs an in-place 32x32 bit-matrix transpose (Hacker's
// Delight, fig. 7-3): on output a[i] bit (31-j) equals input a[j] bit
// (31-i). Exported because the selector's BIT→RZE pricing reuses it to
// materialize the plane-major zero bitmap from group ORs.
func Transpose32(a *[32]uint32) {
	m := uint32(0x0000FFFF)
	for j := uint(16); j != 0; j >>= 1 {
		for k := 0; k < 32; k = (k + int(j) + 1) &^ int(j) {
			t := (a[k] ^ (a[k+int(j)] >> j)) & m
			a[k] ^= t
			a[k+int(j)] ^= t << j
		}
		m ^= m << (j >> 1)
	}
}

// transpose64 performs an in-place 64x64 bit-matrix transpose.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			t := (a[k] ^ (a[k+int(j)] >> j)) & m
			a[k] ^= t
			a[k+int(j)] ^= t << j
		}
		m ^= m << (j >> 1)
	}
}

// Forward implements Transform.
func (b Bit) Forward(src []byte) []byte {
	return b.ForwardInto(nil, src)
}

// bitForward32 transposes directly on aliased words: each 32-word block is
// copied into the register-resident tile, transposed, and scattered with
// stride nb (the plane-major layout).
func bitForward32(ow, sw []uint32, nb int) {
	if nb > 0 && simd.BitFwd32(ow, sw, nb) {
		return
	}
	var blk [32]uint32
	for k := 0; k < nb; k++ {
		copy(blk[:], sw[k*32:k*32+32])
		Transpose32(&blk)
		for plane := 0; plane < 32; plane++ {
			ow[plane*nb+k] = blk[plane]
		}
	}
}

func bitForward64(ow, sw []uint64, nb int) {
	if nb > 0 && simd.BitFwd64(ow, sw, nb) {
		return
	}
	var blk [64]uint64
	for k := 0; k < nb; k++ {
		copy(blk[:], sw[k*64:k*64+64])
		transpose64(&blk)
		for plane := 0; plane < 64; plane++ {
			ow[plane*nb+k] = blk[plane]
		}
	}
}

// bitInverse32 gathers each block's planes with stride nb, transposes, and
// stores the block contiguously.
func bitInverse32(ow, ew []uint32, nb int) {
	if nb > 0 && simd.BitInv32(ow, ew, nb) {
		return
	}
	var blk [32]uint32
	for k := 0; k < nb; k++ {
		for plane := 0; plane < 32; plane++ {
			blk[plane] = ew[plane*nb+k]
		}
		Transpose32(&blk)
		copy(ow[k*32:k*32+32], blk[:])
	}
}

func bitInverse64(ow, ew []uint64, nb int) {
	if nb > 0 && simd.BitInv64(ow, ew, nb) {
		return
	}
	var blk [64]uint64
	for k := 0; k < nb; k++ {
		for plane := 0; plane < 64; plane++ {
			blk[plane] = ew[plane*nb+k]
		}
		transpose64(&blk)
		copy(ow[k*64:k*64+64], blk[:])
	}
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
		bitForward32(ow.W, sw.W, nb)
		ow.Done()
		sw.Done()
	} else {
		sw := wordio.In64(src)
		nb := len(sw.W) / 64
		n = nb * 64 * 8
		ow := wordio.Out64(out[:n])
		bitForward64(ow.W, sw.W, nb)
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
		bitInverse32(ow.W, ew.W, nb)
		ow.Done()
		ew.Done()
	} else {
		ew := wordio.In64(enc)
		nb := len(ew.W) / 64
		n = nb * 64 * 8
		ow := wordio.Out64(out[:n])
		bitInverse64(ow.W, ew.W, nb)
		ow.Done()
		ew.Done()
	}
	copy(out[n:], enc[n:])
	return dst, nil
}
