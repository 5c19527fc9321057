//go:build (!amd64 && !arm64) || noasm || purego

package simd

// No assembly in this build: every runner finishes nothing and the ops in
// ops.go run their scalar loops over the whole job.

func accelDiffZigOr32(_, _ []uint32, _ uint32) (int, uint32)    { return 0, 0 }
func accelDiffZigOr64(_, _ []uint64, _ uint64) (int, uint64)    { return 0, 0 }
func accelUnDiffZig32(_, _ []uint32, prev uint32) (int, uint32) { return 0, prev }
func accelUnDiffZig64(_, _ []uint64, prev uint64) (int, uint64) { return 0, prev }
func accelOr32(_ []uint32) (int, uint32)                        { return 0, 0 }
func accelZigOr32(_ []uint32) (int, uint32)                     { return 0, 0 }
func accelOr64(_ []uint64) (int, uint64)                        { return 0, 0 }
func accelZigOr64(_ []uint64) (int, uint64)                     { return 0, 0 }
func accelNonzeroBM(_, _ []byte) (int, int)                     { return 0, 0 }
func accelChangeBM(_, _ []byte) int                             { return 0 }
func accelFCMHash64(_, _ []uint64) int                          { return 0 }

func accelPack32(_ []byte, bp int, acc uint64, nacc uint, _ []uint32, _ uint, _ bool) (int, int, uint64, uint) {
	return 0, bp, acc, nacc
}
func accelPack64(_ []byte, bp int, acc uint64, nacc uint, _ []uint64, _ uint, _ bool) (int, int, uint64, uint) {
	return 0, bp, acc, nacc
}
func accelUnpack32(_ []uint32, _ []byte, pos uint64, _ uint, _ bool) (int, uint64) { return 0, pos }
func accelUnpack64(_ []uint64, _ []byte, pos uint64, _ uint, _ bool) (int, uint64) { return 0, pos }

func accelBitFwd32(_, _ []uint32, _ int) int { return 0 }
func accelBitInv32(_, _ []uint32, _ int) int { return 0 }
func accelBitFwd64(_, _ []uint64, _ int) int { return 0 }
func accelBitInv64(_, _ []uint64, _ int) int { return 0 }
