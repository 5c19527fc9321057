package simd

import (
	"encoding/binary"
	"math/bits"

	"fpcompress/internal/wordio"
)

// Every op is total. It first reslices its outputs with a three-index
// expression, so an output shorter than the job panics at every level
// before anything is written. Then the level's accel* runner (ops_*.go)
// does the prefix its assembly covers and reports how far it got, and
// the op's scalar loop — the reference of record — finishes the rest.

// DiffZigOr32 computes dst[i] = ZigZag32(src[i] - src[i-1]) (src[-1] taken
// as prev) for all of src and returns the OR of the outputs. dst must hold
// at least len(src) words.
func DiffZigOr32(dst, src []uint32, prev uint32) uint32 {
	dst = dst[:len(src):len(dst)]
	n, or := accelDiffZigOr32(dst, src, prev)
	if n == len(src) {
		return or
	}
	if n > 0 {
		prev = src[n-1]
	}
	return or | diffZigOr32(dst[n:], src[n:], prev)
}

// diffZigOr32 is DiffZigOr32's scalar body. The difference has no
// loop-carried dependency beyond the previous word, so a 4-wide unroll
// keeps the subtract/shift/xor chains independent.
func diffZigOr32(dst, src []uint32, prev uint32) uint32 {
	dst = dst[:len(src)]
	var or uint32
	i := 0
	for ; i+4 <= len(src); i += 4 {
		a, b, c, d := src[i], src[i+1], src[i+2], src[i+3]
		za, zb := wordio.ZigZag32(a-prev), wordio.ZigZag32(b-a)
		zc, zd := wordio.ZigZag32(c-b), wordio.ZigZag32(d-c)
		dst[i], dst[i+1], dst[i+2], dst[i+3] = za, zb, zc, zd
		or |= za | zb | zc | zd
		prev = d
	}
	for ; i < len(src); i++ {
		z := wordio.ZigZag32(src[i] - prev)
		prev = src[i]
		dst[i] = z
		or |= z
	}
	return or
}

// DiffZigOr64 is the 64-bit variant of DiffZigOr32.
func DiffZigOr64(dst, src []uint64, prev uint64) uint64 {
	dst = dst[:len(src):len(dst)]
	n, or := accelDiffZigOr64(dst, src, prev)
	if n == len(src) {
		return or
	}
	if n > 0 {
		prev = src[n-1]
	}
	return or | diffZigOr64(dst[n:], src[n:], prev)
}

func diffZigOr64(dst, src []uint64, prev uint64) uint64 {
	dst = dst[:len(src)]
	var or uint64
	i := 0
	for ; i+4 <= len(src); i += 4 {
		a, b, c, d := src[i], src[i+1], src[i+2], src[i+3]
		za, zb := wordio.ZigZag64(a-prev), wordio.ZigZag64(b-a)
		zc, zd := wordio.ZigZag64(c-b), wordio.ZigZag64(d-c)
		dst[i], dst[i+1], dst[i+2], dst[i+3] = za, zb, zc, zd
		or |= za | zb | zc | zd
		prev = d
	}
	for ; i < len(src); i++ {
		z := wordio.ZigZag64(src[i] - prev)
		prev = src[i]
		dst[i] = z
		or |= z
	}
	return or
}

// UnDiffZig32 computes the DIFFMS inverse dst[i] = prev + Σ
// UnZigZag32(src[0..i]) and returns the final running value. dst must hold
// at least len(src) words; dst and src may alias exactly (dst[i] is
// written after src[i] is read).
func UnDiffZig32(dst, src []uint32, prev uint32) uint32 {
	dst = dst[:len(src):len(dst)]
	n, prev := accelUnDiffZig32(dst, src, prev)
	src, dst = src[n:], dst[n:]
	// The sum is loop-carried, but un-zigzagging the next block while the
	// adds retire still overlaps work.
	i := 0
	for ; i+4 <= len(src); i += 4 {
		a := wordio.UnZigZag32(src[i])
		b := wordio.UnZigZag32(src[i+1])
		c := wordio.UnZigZag32(src[i+2])
		d := wordio.UnZigZag32(src[i+3])
		dst[i] = prev + a
		dst[i+1] = prev + a + b
		dst[i+2] = prev + a + b + c
		prev += a + b + c + d
		dst[i+3] = prev
	}
	for ; i < len(src); i++ {
		prev += wordio.UnZigZag32(src[i])
		dst[i] = prev
	}
	return prev
}

// UnDiffZig64 is the 64-bit variant of UnDiffZig32.
func UnDiffZig64(dst, src []uint64, prev uint64) uint64 {
	dst = dst[:len(src):len(dst)]
	n, prev := accelUnDiffZig64(dst, src, prev)
	src, dst = src[n:], dst[n:]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		a := wordio.UnZigZag64(src[i])
		b := wordio.UnZigZag64(src[i+1])
		c := wordio.UnZigZag64(src[i+2])
		d := wordio.UnZigZag64(src[i+3])
		dst[i] = prev + a
		dst[i+1] = prev + a + b
		dst[i+2] = prev + a + b + c
		prev += a + b + c + d
		dst[i+3] = prev
	}
	for ; i < len(src); i++ {
		prev += wordio.UnZigZag64(src[i])
		dst[i] = prev
	}
	return prev
}

// Or32 returns the OR of src. MPLG's width scan uses OR in place of max:
// both have the same bit length and top bit, the only properties the
// format derives from the scan.
func Or32(src []uint32) uint32 {
	n, or := accelOr32(src)
	for _, v := range src[n:] {
		or |= v
	}
	return or
}

// ZigOr32 returns the OR of ZigZag32(src[i]) (MPLG's enhancement retry
// scan).
func ZigOr32(src []uint32) uint32 {
	n, or := accelZigOr32(src)
	for _, v := range src[n:] {
		or |= wordio.ZigZag32(v)
	}
	return or
}

// Or64 is the 64-bit variant of Or32.
func Or64(src []uint64) uint64 {
	n, or := accelOr64(src)
	for _, v := range src[n:] {
		or |= v
	}
	return or
}

// ZigOr64 is the 64-bit variant of ZigOr32.
func ZigOr64(src []uint64) uint64 {
	n, or := accelZigOr64(src)
	for _, v := range src[n:] {
		or |= wordio.ZigZag64(v)
	}
	return or
}

// NonzeroBM fills the first (len(src)+7)/8 bytes of bm with RZE's
// non-zero-byte bitmap of src — bit i set when src[i] != 0, MSB-first
// within each byte — and returns the number of set bits. Full 8-byte
// groups take the SWAR movemask over src's words; the tail goes byte by
// byte.
func NonzeroBM(bm, src []byte) int {
	bm = bm[: (len(src)+7)/8 : len(bm)]
	n, nonzero := accelNonzeroBM(bm, src)
	bm, src = bm[n/8:], src[n:]
	sw := wordio.In64(src)
	for g, v := range sw.W {
		m := wordio.NonzeroMask8(v)
		bm[g] = m
		nonzero += bits.OnesCount8(m)
	}
	i := len(sw.W) * 8
	sw.Done()
	if i < len(src) {
		var m byte
		for j, c := range src[i:] {
			if c != 0 {
				m |= 0x80 >> j
			}
		}
		bm[i/8] = m
		nonzero += bits.OnesCount8(m)
	}
	return nonzero
}

// ChangeBM fills the first (len(cur)+7)/8 bytes of bm with RZE's
// changed-byte bitmap of cur: bit i set when cur[i] differs from its
// predecessor (cur[-1] taken as zero), MSB-first within each byte.
func ChangeBM(bm, cur []byte) {
	bm = bm[: (len(cur)+7)/8 : len(bm)]
	n := accelChangeBM(bm, cur)
	prev := byte(0)
	if n > 0 {
		prev = cur[n-1]
	}
	changeBM(bm[n/8:], cur[n:], prev)
}

// changeBM is ChangeBM's scalar body, with prev as cur[-1]. Full 8-byte
// groups use the SWAR mask over cur's words; the tail goes byte by byte.
func changeBM(bm, cur []byte, prev byte) {
	cw := wordio.In64(cur)
	for g, v := range cw.W {
		// Byte j of v<<8|prev is byte j's predecessor.
		bm[g] = wordio.NonzeroMask8(v ^ (v<<8 | uint64(prev)))
		prev = byte(v >> 56)
	}
	i := len(cw.W) * 8
	cw.Done()
	if i < len(cur) {
		var m byte
		for j, c := range cur[i:] {
			if c != prev {
				m |= 0x80 >> j
			}
			prev = c
		}
		bm[i/8] = m
	}
}

// FCMHash64 computes dst[k] = Mix64(src[k+2] ^ rotl(src[k+1],23) ^
// rotl(src[k],47)) for every k: the FCM context hash of the word after
// src[k+2], whose three predecessors are src[k+2], src[k+1] and src[k].
// src must hold at least len(dst)+2 words.
func FCMHash64(dst, src []uint64) {
	src = src[: len(dst)+2 : len(src)]
	for k := accelFCMHash64(dst, src); k < len(dst); k++ {
		dst[k] = wordio.Mix64(src[k+2] ^ bits.RotateLeft64(src[k+1], 23) ^ bits.RotateLeft64(src[k], 47))
	}
}

// Pack32 appends len(src) keep-bit fields (keep <= 32, each value
// optionally zigzagged first and then fitting keep bits) to the MSB-first
// bit stream held in (buf, bp, acc, nacc) and returns the updated (bp,
// acc, nacc). The accumulator keeps nacc < 32 pending bits between calls,
// so no append straddles its 64 bits, and each flush is one big-endian
// 32-bit store at buf[bp]. The zig test is hoisted out of the field loops
// here and in Pack64: tested per field, it costs the accumulator loop a
// register and measurably slows it.
func Pack32(buf []byte, bp int, acc uint64, nacc uint, src []uint32, keep uint, zig bool) (int, uint64, uint) {
	n, bp, acc, nacc := accelPack32(buf, bp, acc, nacc, src, keep, zig)
	if zig {
		for _, v := range src[n:] {
			acc = acc<<keep | uint64(wordio.ZigZag32(v))
			nacc += keep
			if nacc >= 32 {
				nacc -= 32
				binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
				bp += 4
				acc &= 1<<nacc - 1
			}
		}
		return bp, acc, nacc
	}
	for _, v := range src[n:] {
		acc = acc<<keep | uint64(v)
		nacc += keep
		if nacc >= 32 {
			nacc -= 32
			binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
			bp += 4
			acc &= 1<<nacc - 1
		}
	}
	return bp, acc, nacc
}

// Pack64 is the 64-bit variant of Pack32 (keep <= 64): fields wider than
// 32 bits are written as two sub-32-bit halves so the accumulator
// invariant holds.
func Pack64(buf []byte, bp int, acc uint64, nacc uint, src []uint64, keep uint, zig bool) (int, uint64, uint) {
	n, bp, acc, nacc := accelPack64(buf, bp, acc, nacc, src, keep, zig)
	src = src[n:]
	switch {
	case keep <= 32 && zig:
		for _, v := range src {
			acc = acc<<keep | wordio.ZigZag64(v)
			nacc += keep
			if nacc >= 32 {
				nacc -= 32
				binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
				bp += 4
				acc &= 1<<nacc - 1
			}
		}
	case keep <= 32:
		for _, v := range src {
			acc = acc<<keep | v
			nacc += keep
			if nacc >= 32 {
				nacc -= 32
				binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
				bp += 4
				acc &= 1<<nacc - 1
			}
		}
	case zig:
		hi := keep - 32
		for _, v := range src {
			v = wordio.ZigZag64(v)
			acc = acc<<hi | v>>32
			nacc += hi
			if nacc >= 32 {
				nacc -= 32
				binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
				bp += 4
				acc &= 1<<nacc - 1
			}
			// Appending 32 bits always reaches the flush threshold, and
			// flushing subtracts the same 32, so nacc is unchanged.
			acc = acc<<32 | v&0xffffffff
			binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
			bp += 4
			acc &= 1<<nacc - 1
		}
	default:
		hi := keep - 32
		for _, v := range src {
			acc = acc<<hi | v>>32
			nacc += hi
			if nacc >= 32 {
				nacc -= 32
				binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
				bp += 4
				acc &= 1<<nacc - 1
			}
			acc = acc<<32 | v&0xffffffff
			binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
			bp += 4
			acc &= 1<<nacc - 1
		}
	}
	return bp, acc, nacc
}

// Unpack32 decodes len(dst) keep-bit fields (keep <= 32, optionally
// un-zigzagged) starting at bit pos of pad through a 64-bit big-endian
// load window, and returns the new bit position. pad must extend at least
// 8 bytes past the byte holding the last field bit (MPLG's zero-padded
// decode copy provides this).
func Unpack32(dst []uint32, pad []byte, pos uint64, keep uint, unzig bool) uint64 {
	n, pos := accelUnpack32(dst, pad, pos, keep, unzig)
	dst = dst[n:]
	mask := uint32(1)<<keep - 1
	sh := 64 - keep
	for i := range dst {
		x := binary.BigEndian.Uint64(pad[pos>>3:])
		dst[i] = uint32(x>>(sh-uint(pos&7))) & mask
		pos += uint64(keep)
	}
	// A separate un-zigzag pass keeps the flag test out of the load loop.
	if unzig {
		for i, v := range dst {
			dst[i] = wordio.UnZigZag32(v)
		}
	}
	return pos
}

// Unpack64 is the 64-bit variant of Unpack32 (keep <= 64). A field wider
// than 57 bits can straddle the load window by up to 7 bits, which
// wordio.LoadBits reads from one spill byte.
func Unpack64(dst []uint64, pad []byte, pos uint64, keep uint, unzig bool) uint64 {
	n, pos := accelUnpack64(dst, pad, pos, keep, unzig)
	dst = dst[n:]
	for i := range dst {
		dst[i] = wordio.LoadBits(pad, uint(pos), keep)
		pos += uint64(keep)
	}
	if unzig {
		for i, v := range dst {
			dst[i] = wordio.UnZigZag64(v)
		}
	}
	return pos
}

// Transpose32 performs an in-place 32x32 bit-matrix transpose (Hacker's
// Delight, fig. 7-3): on output a[i] bit (31-j) equals input a[j] bit
// (31-i). The selector's BIT→RZE pricing also uses it, to materialize the
// plane-major zero bitmap from group ORs.
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

// BitFwd32 transposes nb 32-word blocks of src into dst's plane-major
// layout (block k's plane p at dst[p*nb+k]); both slices must hold at
// least 32*nb words, and they must not overlap. Each block goes through a
// register tile: copied in, transposed, and scattered with stride nb.
func BitFwd32(dst, src []uint32, nb int) {
	dst, src = dst[:32*nb:len(dst)], src[:32*nb:len(src)]
	var blk [32]uint32
	for k := accelBitFwd32(dst, src, nb); k < nb; k++ {
		copy(blk[:], src[k*32:k*32+32])
		Transpose32(&blk)
		for p, w := range blk[:] {
			dst[p*nb+k] = w
		}
	}
}

// BitInv32 is the inverse of BitFwd32: each block's planes are gathered
// with stride nb, transposed, and stored contiguously.
func BitInv32(dst, src []uint32, nb int) {
	dst, src = dst[:32*nb:len(dst)], src[:32*nb:len(src)]
	var blk [32]uint32
	for k := accelBitInv32(dst, src, nb); k < nb; k++ {
		for p := range blk {
			blk[p] = src[p*nb+k]
		}
		Transpose32(&blk)
		copy(dst[k*32:k*32+32], blk[:])
	}
}

// BitFwd64 is the 64-bit variant of BitFwd32, over 64-word blocks.
func BitFwd64(dst, src []uint64, nb int) {
	dst, src = dst[:64*nb:len(dst)], src[:64*nb:len(src)]
	var blk [64]uint64
	for k := accelBitFwd64(dst, src, nb); k < nb; k++ {
		copy(blk[:], src[k*64:k*64+64])
		transpose64(&blk)
		for p, w := range blk[:] {
			dst[p*nb+k] = w
		}
	}
}

// BitInv64 is the inverse of BitFwd64.
func BitInv64(dst, src []uint64, nb int) {
	dst, src = dst[:64*nb:len(dst)], src[:64*nb:len(src)]
	var blk [64]uint64
	for k := accelBitInv64(dst, src, nb); k < nb; k++ {
		for p := range blk {
			blk[p] = src[p*nb+k]
		}
		transpose64(&blk)
		copy(dst[k*64:k*64+64], blk[:])
	}
}
