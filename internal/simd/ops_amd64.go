//go:build amd64 && !noasm && !purego

package simd

// AVX2 runners for the ops in ops.go. Each accel* checks the level and
// the op's parameters, runs its assembly body (kernels_*_amd64.s) over
// whole SIMD groups, and returns how many elements it finished — a prefix
// the op's scalar loop continues from, 0 when it leaves the whole job to
// that loop. Kernels that read one element before their pointer get their
// first group from the op's scalar body.

//go:noescape
func diffZigOr32Asm(dst, src *uint32, groups int) uint32

//go:noescape
func diffZigOr64Asm(dst, src *uint64, groups int) uint64

//go:noescape
func unDiffZig32Asm(dst, src *uint32, groups int, prev uint32) uint32

//go:noescape
func unDiffZig64Asm(dst, src *uint64, groups int, prev uint64) uint64

//go:noescape
func or32Asm(src *uint32, groups int) uint32

//go:noescape
func zigOr32Asm(src *uint32, groups int) uint32

//go:noescape
func or64Asm(src *uint64, groups int) uint64

//go:noescape
func zigOr64Asm(src *uint64, groups int) uint64

//go:noescape
func nonzeroBMAsm(bm *byte, src *byte, blocks int) int

//go:noescape
func changeBMAsm(bm *byte, cur *byte, blocks int)

//go:noescape
func fcmHashAsm(dst, src *uint64, groups int)

//go:noescape
func pack32Asm(buf *byte, bp int, acc, nacc uint64, src *uint32, n int, keep, zig uint64) (newBp int, newAcc, newNacc uint64)

//go:noescape
func pack64Asm(buf *byte, bp int, acc, nacc uint64, src *uint64, n int, keep, zig uint64) (newBp int, newAcc, newNacc uint64)

//go:noescape
func unpack32Asm(dst *uint32, groups int, pad *byte, pos, keep, unzig uint64) uint64

//go:noescape
func unpack64Asm(dst *uint64, groups int, pad *byte, pos, keep, unzig uint64) uint64

//go:noescape
func bitFwd32Asm(dst, src *uint32, nb int)

//go:noescape
func bitInv32Asm(dst, src *uint32, nb int)

//go:noescape
func bitFwd64Asm(dst, src *uint64, nb int)

//go:noescape
func bitInv64Asm(dst, src *uint64, nb int)

// minWords is the length below which the runners leave the job to the
// scalar loop: too short to amortize the vector prologue.
const minWords = 16

func avx2() bool { return active.Load() == levelAVX2 }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func accelDiffZigOr32(dst, src []uint32, prev uint32) (int, uint32) {
	if !avx2() || len(src) < minWords {
		return 0, 0
	}
	or := diffZigOr32(dst[:8], src[:8], prev) // the kernel reads src[-1]
	g := (len(src) - 8) / 8
	or |= diffZigOr32Asm(&dst[8], &src[8], g)
	return 8 + g*8, or
}

func accelDiffZigOr64(dst, src []uint64, prev uint64) (int, uint64) {
	if !avx2() || len(src) < minWords {
		return 0, 0
	}
	or := diffZigOr64(dst[:4], src[:4], prev) // the kernel reads src[-1]
	g := (len(src) - 4) / 4
	or |= diffZigOr64Asm(&dst[4], &src[4], g)
	return 4 + g*4, or
}

func accelUnDiffZig32(dst, src []uint32, prev uint32) (int, uint32) {
	if !avx2() || len(src) < minWords {
		return 0, prev
	}
	g := len(src) / 8
	return g * 8, unDiffZig32Asm(&dst[0], &src[0], g, prev)
}

func accelUnDiffZig64(dst, src []uint64, prev uint64) (int, uint64) {
	if !avx2() || len(src) < minWords {
		return 0, prev
	}
	g := len(src) / 4
	return g * 4, unDiffZig64Asm(&dst[0], &src[0], g, prev)
}

func accelOr32(src []uint32) (int, uint32) {
	if !avx2() || len(src) < minWords {
		return 0, 0
	}
	g := len(src) / 8
	return g * 8, or32Asm(&src[0], g)
}

func accelZigOr32(src []uint32) (int, uint32) {
	if !avx2() || len(src) < minWords {
		return 0, 0
	}
	g := len(src) / 8
	return g * 8, zigOr32Asm(&src[0], g)
}

func accelOr64(src []uint64) (int, uint64) {
	if !avx2() || len(src) < minWords {
		return 0, 0
	}
	g := len(src) / 4
	return g * 4, or64Asm(&src[0], g)
}

func accelZigOr64(src []uint64) (int, uint64) {
	if !avx2() || len(src) < minWords {
		return 0, 0
	}
	g := len(src) / 4
	return g * 4, zigOr64Asm(&src[0], g)
}

// accelNonzeroBM returns the bytes of src it mapped and their set bits.
func accelNonzeroBM(bm, src []byte) (int, int) {
	if !avx2() || len(src) < 64 {
		return 0, 0
	}
	b := len(src) / 32
	return b * 32, nonzeroBMAsm(&bm[0], &src[0], b)
}

func accelChangeBM(bm, cur []byte) int {
	if !avx2() || len(cur) < 64 {
		return 0
	}
	changeBM(bm[:1], cur[:8], 0) // the kernel reads cur[-1]
	b := (len(cur) - 8) / 32
	changeBMAsm(&bm[1], &cur[8], b)
	return 8 + b*32
}

func accelFCMHash64(dst, src []uint64) int {
	if !avx2() || len(dst) < minWords {
		return 0
	}
	g := len(dst) / 4
	fcmHashAsm(&dst[0], &src[0], g)
	return g * 4
}

// packFits reports whether the pack kernels can take the whole call: keep
// in their range, the accumulator invariant on entry, and room in buf for
// every flushed 32-bit store (the kernels store unchecked).
func packFits(buf []byte, bp int, nacc uint, n int, keep, maxKeep uint) bool {
	if n < minWords || keep < 1 || keep > maxKeep || nacc >= 32 {
		return false
	}
	total := uint64(nacc) + uint64(keep)*uint64(n)
	return uint64(bp)+4*(total/32) <= uint64(len(buf))
}

// accelPack32 packs all of src or none of it.
func accelPack32(buf []byte, bp int, acc uint64, nacc uint, src []uint32, keep uint, zig bool) (int, int, uint64, uint) {
	if !avx2() || !packFits(buf, bp, nacc, len(src), keep, 32) {
		return 0, bp, acc, nacc
	}
	nbp, nacc2, nn := pack32Asm(&buf[0], bp, acc, uint64(nacc), &src[0], len(src), uint64(keep), b2u(zig))
	return len(src), nbp, nacc2, uint(nn)
}

// accelPack64 packs all of src or none of it.
func accelPack64(buf []byte, bp int, acc uint64, nacc uint, src []uint64, keep uint, zig bool) (int, int, uint64, uint) {
	if !avx2() || !packFits(buf, bp, nacc, len(src), keep, 64) {
		return 0, bp, acc, nacc
	}
	nbp, nacc2, nn := pack64Asm(&buf[0], bp, acc, uint64(nacc), &src[0], len(src), uint64(keep), b2u(zig))
	return len(src), nbp, nacc2, uint(nn)
}

// unpackFits reports whether the gather kernels may decode n fields: keep
// in their range and the 8-byte load window of the last field inside pad.
func unpackFits(pad []byte, pos uint64, n int, keep, maxKeep uint) bool {
	if n < minWords || keep < 1 || keep > maxKeep {
		return false
	}
	end := pos + uint64(keep)*uint64(n)
	return (end-1)/8+8 <= uint64(len(pad))
}

func accelUnpack32(dst []uint32, pad []byte, pos uint64, keep uint, unzig bool) (int, uint64) {
	if !avx2() || !unpackFits(pad, pos, len(dst), keep, 32) {
		return 0, pos
	}
	g := len(dst) / 4
	return g * 4, unpack32Asm(&dst[0], g, &pad[0], pos, uint64(keep), b2u(unzig))
}

// accelUnpack64 stops at keep 57: a wider field plus its leading bit
// offset no longer fits one 64-bit load window.
func accelUnpack64(dst []uint64, pad []byte, pos uint64, keep uint, unzig bool) (int, uint64) {
	if !avx2() || !unpackFits(pad, pos, len(dst), keep, 57) {
		return 0, pos
	}
	g := len(dst) / 4
	return g * 4, unpack64Asm(&dst[0], g, &pad[0], pos, uint64(keep), b2u(unzig))
}

// The transpose runners take all nb blocks or none; 64-bit blocks run as
// four 32x32 dword half-transposes each.

func accelBitFwd32(dst, src []uint32, nb int) int {
	if !avx2() || nb < 1 {
		return 0
	}
	bitFwd32Asm(&dst[0], &src[0], nb)
	return nb
}

func accelBitInv32(dst, src []uint32, nb int) int {
	if !avx2() || nb < 1 {
		return 0
	}
	bitInv32Asm(&dst[0], &src[0], nb)
	return nb
}

func accelBitFwd64(dst, src []uint64, nb int) int {
	if !avx2() || nb < 1 {
		return 0
	}
	bitFwd64Asm(&dst[0], &src[0], nb)
	return nb
}

func accelBitInv64(dst, src []uint64, nb int) int {
	if !avx2() || nb < 1 {
		return 0
	}
	bitInv64Asm(&dst[0], &src[0], nb)
	return nb
}
