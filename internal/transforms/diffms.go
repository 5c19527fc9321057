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
// Both directions run one unrolled pass over the words of the input and
// output buffers, taken through wordio's copy-in/copy-out (In/Out), so
// the same loop serves every buffer alignment and build.
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

// Forward implements Transform.
func (d DiffMS) Forward(src []byte) []byte {
	return d.ForwardInto(nil, src)
}

// diffMSForward32 is the fused difference + zigzag kernel: the forward
// difference has no loop-carried dependency beyond the block boundary, so
// a 4-wide unroll keeps the subtract/shift/xor chains independent.
func diffMSForward32(out, src []uint32) {
	out = out[:len(src)]
	if _, ok := simd.DiffZigOr32(out, src, 0); ok {
		return
	}
	prev := uint32(0)
	i := 0
	for ; i+4 <= len(src); i += 4 {
		a, b, c, d := src[i], src[i+1], src[i+2], src[i+3]
		out[i] = wordio.ZigZag32(a - prev)
		out[i+1] = wordio.ZigZag32(b - a)
		out[i+2] = wordio.ZigZag32(c - b)
		out[i+3] = wordio.ZigZag32(d - c)
		prev = d
	}
	for ; i < len(src); i++ {
		v := src[i]
		out[i] = wordio.ZigZag32(v - prev)
		prev = v
	}
}

func diffMSForward64(out, src []uint64) {
	out = out[:len(src)]
	if _, ok := simd.DiffZigOr64(out, src, 0); ok {
		return
	}
	prev := uint64(0)
	i := 0
	for ; i+4 <= len(src); i += 4 {
		a, b, c, d := src[i], src[i+1], src[i+2], src[i+3]
		out[i] = wordio.ZigZag64(a - prev)
		out[i+1] = wordio.ZigZag64(b - a)
		out[i+2] = wordio.ZigZag64(c - b)
		out[i+3] = wordio.ZigZag64(d - c)
		prev = d
	}
	for ; i < len(src); i++ {
		v := src[i]
		out[i] = wordio.ZigZag64(v - prev)
		prev = v
	}
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
		diffMSForward32(ow.W, sw.W)
		n = len(sw.W) * 4
		ow.Done()
		sw.Done()
	} else {
		sw, ow := wordio.In64(src), wordio.Out64(out)
		diffMSForward64(ow.W, sw.W)
		n = len(sw.W) * 8
		ow.Done()
		sw.Done()
	}
	copy(out[n:], src[n:])
	return dst
}

// InverseLimit implements Transform. DIFFMS is size-preserving, so the
// budget bounds the encoded length itself.
func (d DiffMS) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return d.InverseInto(nil, enc, maxDecoded)
}

// Inverse implements Transform. Decoding is a prefix sum over the
// un-zigzagged differences.
func (d DiffMS) Inverse(enc []byte) ([]byte, error) {
	return d.InverseInto(nil, enc, NoLimit)
}

// diffMSInverse32 is the prefix-sum kernel. The sum is loop-carried, but
// un-zigzagging the next block while the adds retire still overlaps work.
func diffMSInverse32(out, enc []uint32) {
	out = out[:len(enc)]
	if _, ok := simd.UnDiffZig32(out, enc, 0); ok {
		return
	}
	prev := uint32(0)
	i := 0
	for ; i+4 <= len(enc); i += 4 {
		a := wordio.UnZigZag32(enc[i])
		b := wordio.UnZigZag32(enc[i+1])
		c := wordio.UnZigZag32(enc[i+2])
		d := wordio.UnZigZag32(enc[i+3])
		out[i] = prev + a
		out[i+1] = prev + a + b
		out[i+2] = prev + a + b + c
		prev += a + b + c + d
		out[i+3] = prev
	}
	for ; i < len(enc); i++ {
		prev += wordio.UnZigZag32(enc[i])
		out[i] = prev
	}
}

func diffMSInverse64(out, enc []uint64) {
	out = out[:len(enc)]
	if _, ok := simd.UnDiffZig64(out, enc, 0); ok {
		return
	}
	prev := uint64(0)
	i := 0
	for ; i+4 <= len(enc); i += 4 {
		a := wordio.UnZigZag64(enc[i])
		b := wordio.UnZigZag64(enc[i+1])
		c := wordio.UnZigZag64(enc[i+2])
		d := wordio.UnZigZag64(enc[i+3])
		out[i] = prev + a
		out[i+1] = prev + a + b
		out[i+2] = prev + a + b + c
		prev += a + b + c + d
		out[i+3] = prev
	}
	for ; i < len(enc); i++ {
		prev += wordio.UnZigZag64(enc[i])
		out[i] = prev
	}
}

// InverseInto implements Transform (see the package comment for the dst
// ownership contract).
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
		diffMSInverse32(ow.W, ew.W)
		n = len(ew.W) * 4
		ow.Done()
		ew.Done()
	} else {
		ew, ow := wordio.In64(enc), wordio.Out64(out)
		diffMSInverse64(ow.W, ew.W)
		n = len(ew.W) * 8
		ow.Done()
		ew.Done()
	}
	copy(out[n:], enc[n:])
	return dst, nil
}
