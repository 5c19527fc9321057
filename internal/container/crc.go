package container

// This file implements CRC32-C combination the way zlib's
// crc32_combine_gen/x2nmodp does (zlib >= 1.2.12), over the reflected
// Castagnoli polynomial P. Given the CRCs of byte ranges A and B, the CRC
// of A||B is crcA·x^(8·len(B)) mod P, xored with crcB: advancing a CRC past
// len(B) zero bytes is one multiplication by a power of x in GF(2)[x]/P.
// The engine computes each chunk's CRC concurrently with (de)compressing
// it, then folds the per-chunk CRCs into the whole-buffer checksum
// serially. The fold costs one 32-step multiply per chunk, plus O(log n)
// multiplies to build the full-chunk and final-chunk shift factors, and
// never makes a second pass over the data.

// crcCastagnoli is the reflected Castagnoli polynomial, matching
// crc32.MakeTable(crc32.Castagnoli).
const crcCastagnoli = 0x82F63B78

// crcOne is the polynomial x^0. The representation is reflected: bit 31
// holds the coefficient of x^0 and bit 0 that of x^31.
const crcOne = 1 << 31

// crcMulMod returns a·b mod P. Step k adds b when a holds x^k, then
// multiplies b by x; both are masks, so the loop has no data-dependent
// branch.
func crcMulMod(a, b uint32) uint32 {
	var p uint32
	for k := 31; k >= 0; k-- {
		p ^= b & -(a >> k & 1)
		b = b>>1 ^ crcCastagnoli&-(b&1)
	}
	return p
}

// crcX2n[k] is x^(2^k) mod P. For the Castagnoli polynomial x^(2^31) ≡ x,
// so the powers repeat with period 31 (zlib's IEEE table repeats with
// period 32) and 31 entries cover every k.
var crcX2n = func() (t [31]uint32) {
	p := uint32(crcOne >> 1) // x^1
	for k := range t {
		t[k] = p
		p = crcMulMod(p, p)
	}
	return t
}()

// crcShift returns x^(8n) mod P, the factor that advances a CRC past n
// zero bytes: one multiply per set bit of n. n <= 0 yields x^0.
func crcShift(n int) uint32 {
	p := uint32(crcOne)
	for k := 3; n > 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = crcMulMod(crcX2n[k%len(crcX2n)], p)
		}
	}
	return p
}

// combineChunkCRCs folds per-chunk CRC32-Cs into the CRC of the
// concatenated data. Every chunk has length cs except the final one, which
// has length lastLen (0 < lastLen <= cs). An empty slice yields 0, the CRC
// of no data.
func combineChunkCRCs(crcs []uint32, cs, lastLen int) uint32 {
	n := len(crcs)
	if n == 0 {
		return 0
	}
	c := crcs[0]
	if n == 1 {
		return c
	}
	full := crcShift(cs)
	for _, v := range crcs[1 : n-1] {
		c = crcMulMod(full, c) ^ v
	}
	last := full
	if lastLen != cs {
		last = crcShift(lastLen)
	}
	return crcMulMod(last, c) ^ crcs[n-1]
}
