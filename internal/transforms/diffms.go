package transforms

import (
	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// DiffMS implements the DIFFMS transformation (paper §3.1, Figure 2): it
// computes the difference modulo 2^w between each word and its predecessor
// within the chunk (the first word is differenced against zero) and stores
// the result in magnitude-sign format via the reversible mapping
// (x<<1)^(x>>w-1). Smooth scientific data has clustered exponents in the
// most-significant bits, so the differences are small positive or small
// negative numbers; the magnitude-sign conversion turns both the leading-'1'
// runs of small negatives and the leading-'0' runs of small positives into
// leading zeros, which the downstream stages eliminate.
//
// DIFFMS is size-preserving. Trailing bytes of a chunk that do not fill a
// whole word are copied verbatim.
//
// Both directions are one simd op (DiffZigOr/UnDiffZig) over the words of
// the input and output buffers, taken through wordio's copy-in/copy-out
// (In/Out), so the same loop serves every buffer alignment and build.
type DiffMS struct {
	// Word selects 32-bit (single precision) or 64-bit (double precision)
	// granularity.
	Word wordio.WordSize
}

// Name implements Transform.
func (d DiffMS) Name() string {
	if d.Word == wordio.W32 {
		return "DIFFMS32"
	}
	return "DIFFMS64"
}

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract).
func (d DiffMS) ForwardInto(dst, src []byte) []byte {
	base := len(dst)
	dst = Grow(dst, len(src))
	out := dst[base:]
	n := 0
	if d.Word == wordio.W32 {
		sw, ow := wordio.In32(src), wordio.Out32(out)
		simd.DiffZigOr32(ow.W, sw.W, 0)
		n = len(sw.W) * 4
		ow.Done()
		sw.Done()
	} else {
		sw, ow := wordio.In64(src), wordio.Out64(out)
		simd.DiffZigOr64(ow.W, sw.W, 0)
		n = len(sw.W) * 8
		ow.Done()
		sw.Done()
	}
	copy(out[n:], src[n:])
	return dst
}

// InverseInto implements Transform (see the package comment for the dst
// ownership contract). Decoding is a prefix sum over the un-zigzagged
// differences. DIFFMS is size-preserving, so the budget bounds the encoded
// length itself.
func (d DiffMS) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	if maxDecoded >= 0 && len(enc) > maxDecoded {
		return nil, Corruptf("DIFFMS: %d bytes exceed decode budget %d", len(enc), maxDecoded)
	}
	base := len(dst)
	dst = Grow(dst, len(enc))
	out := dst[base:]
	n := 0
	if d.Word == wordio.W32 {
		ew, ow := wordio.In32(enc), wordio.Out32(out)
		simd.UnDiffZig32(ow.W, ew.W, 0)
		n = len(ew.W) * 4
		ow.Done()
		ew.Done()
	} else {
		ew, ow := wordio.In64(enc), wordio.Out64(out)
		simd.UnDiffZig64(ow.W, ew.W, 0)
		n = len(ew.W) * 8
		ow.Done()
		ew.Done()
	}
	copy(out[n:], enc[n:])
	return dst, nil
}
