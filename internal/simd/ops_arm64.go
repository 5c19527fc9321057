//go:build arm64 && !noasm && !purego

package simd

import "math/bits"

// NEON runners for the ops in ops.go, with the same contract as the AVX2
// ones: run the assembly over a prefix and return its length. NEON covers
// the streaming kernels (diff+zigzag and the OR width-scans), the RZE
// bitmap scans, the FCM context hash and the 64-bit pack accumulator (the
// latter two as scalar-unit assembly — NEON has no 64-bit vector multiply
// and the bit stream is serial, but the hand-scheduled loops still beat
// the bounds-checked Go). The prefix sum, the 32-bit pack, the
// gather-based unpacks and the plane transposes have no NEON body: their
// runners return 0 and the ops' scalar loops do the whole job.

//go:noescape
func diffZigOr32Asm(dst, src *uint32, groups int) uint32

//go:noescape
func diffZigOr64Asm(dst, src *uint64, groups int) uint64

//go:noescape
func or32Asm(src *uint32, groups int) uint32

//go:noescape
func zigOr32Asm(src *uint32, groups int) uint32

//go:noescape
func or64Asm(src *uint64, groups int) uint64

//go:noescape
func zigOr64Asm(src *uint64, groups int) uint64

//go:noescape
func nonzeroBMAsm(bm *byte, src *byte, blocks int)

//go:noescape
func changeBMAsm(bm *byte, cur *byte, blocks int)

//go:noescape
func fcmHashAsm(dst, src *uint64, groups int)

//go:noescape
func pack64Asm(buf *byte, bp int, acc, nacc uint64, src *uint64, n int, keep, zig uint64) (newBp int, newAcc, newNacc uint64)

// minWords is the length below which the runners leave the job to the
// scalar loop.
const minWords = 16

func neon() bool { return active.Load() == levelNEON }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func accelDiffZigOr32(dst, src []uint32, prev uint32) (int, uint32) {
	if !neon() || len(src) < minWords {
		return 0, 0
	}
	or := diffZigOr32(dst[:4], src[:4], prev) // the kernel reads src[-1]
	g := (len(src) - 4) / 4
	or |= diffZigOr32Asm(&dst[4], &src[4], g)
	return 4 + g*4, or
}

func accelDiffZigOr64(dst, src []uint64, prev uint64) (int, uint64) {
	if !neon() || len(src) < minWords {
		return 0, 0
	}
	or := diffZigOr64(dst[:2], src[:2], prev) // the kernel reads src[-1]
	g := (len(src) - 2) / 2
	or |= diffZigOr64Asm(&dst[2], &src[2], g)
	return 2 + g*2, or
}

func accelUnDiffZig32(_, _ []uint32, prev uint32) (int, uint32) { return 0, prev }

func accelUnDiffZig64(_, _ []uint64, prev uint64) (int, uint64) { return 0, prev }

func accelOr32(src []uint32) (int, uint32) {
	if !neon() || len(src) < minWords {
		return 0, 0
	}
	g := len(src) / 4
	return g * 4, or32Asm(&src[0], g)
}

func accelZigOr32(src []uint32) (int, uint32) {
	if !neon() || len(src) < minWords {
		return 0, 0
	}
	g := len(src) / 4
	return g * 4, zigOr32Asm(&src[0], g)
}

func accelOr64(src []uint64) (int, uint64) {
	if !neon() || len(src) < minWords {
		return 0, 0
	}
	g := len(src) / 2
	return g * 2, or64Asm(&src[0], g)
}

func accelZigOr64(src []uint64) (int, uint64) {
	if !neon() || len(src) < minWords {
		return 0, 0
	}
	g := len(src) / 2
	return g * 2, zigOr64Asm(&src[0], g)
}

// accelNonzeroBM returns the bytes of src it mapped and their set bits.
// The NEON kernel emits the bitmap only; the count is a popcount over the
// bitmap bytes it wrote.
func accelNonzeroBM(bm, src []byte) (int, int) {
	if !neon() || len(src) < 64 {
		return 0, 0
	}
	b := len(src) / 16
	nonzeroBMAsm(&bm[0], &src[0], b)
	nonzero := 0
	for _, m := range bm[:b*2] {
		nonzero += bits.OnesCount8(m)
	}
	return b * 16, nonzero
}

func accelChangeBM(bm, cur []byte) int {
	if !neon() || len(cur) < 64 {
		return 0
	}
	changeBM(bm[:1], cur[:8], 0) // the kernel reads cur[-1]
	b := (len(cur) - 8) / 16
	changeBMAsm(&bm[1], &cur[8], b)
	return 8 + b*16
}

// accelFCMHash64 hashes every position: the kernel has no group width.
func accelFCMHash64(dst, src []uint64) int {
	if !neon() || len(dst) < minWords {
		return 0
	}
	fcmHashAsm(&dst[0], &src[0], len(dst))
	return len(dst)
}

func accelPack32(_ []byte, bp int, acc uint64, nacc uint, _ []uint32, _ uint, _ bool) (int, int, uint64, uint) {
	return 0, bp, acc, nacc
}

// accelPack64 packs all of src or none of it: the kernel stores unchecked,
// so it runs only with keep in range, the accumulator invariant on entry,
// and room in buf for every flushed 32-bit store.
func accelPack64(buf []byte, bp int, acc uint64, nacc uint, src []uint64, keep uint, zig bool) (int, int, uint64, uint) {
	if !neon() || len(src) < minWords || keep < 1 || keep > 64 || nacc >= 32 {
		return 0, bp, acc, nacc
	}
	total := uint64(nacc) + uint64(keep)*uint64(len(src))
	if uint64(bp)+4*(total/32) > uint64(len(buf)) {
		return 0, bp, acc, nacc
	}
	nbp, nacc2, nn := pack64Asm(&buf[0], bp, acc, uint64(nacc), &src[0], len(src), uint64(keep), b2u(zig))
	return len(src), nbp, nacc2, uint(nn)
}

func accelUnpack32(_ []uint32, _ []byte, pos uint64, _ uint, _ bool) (int, uint64) { return 0, pos }

func accelUnpack64(_ []uint64, _ []byte, pos uint64, _ uint, _ bool) (int, uint64) { return 0, pos }

func accelBitFwd32(_, _ []uint32, _ int) int { return 0 }
func accelBitInv32(_, _ []uint32, _ int) int { return 0 }
func accelBitFwd64(_, _ []uint64, _ int) int { return 0 }
func accelBitInv64(_, _ []uint64, _ int) int { return 0 }
