// Package simd provides the word ops under the hottest transform inner
// loops — the DIFFMS diff+zigzag pass and its prefix-sum inverse, the MPLG
// OR width scans and pack/unpack bit accumulators, the BIT 32x32/64x64
// plane transpose, the RZE nonzero/change bitmap scans, and the FCM
// context hash — each with runtime-dispatched architecture-specific
// assembly (AVX2 on amd64, NEON on arm64) over the part of the work it
// covers.
//
// # Dispatch contract
//
// Every exported op is total: it always finishes the whole job and
// returns only its results. Each op's scalar Go loop, in ops.go, is the
// implementation of record for that loop in the codec; the transforms and
// fused kernels call the op and keep no copy of it. At the dispatched
// level the op runs its assembly over the prefix the kernel covers (whole
// SIMD groups, past any head the kernel cannot start on) and its scalar
// loop over the rest. The scalar loop does all of the work when no
// assembly is dispatched:
//
//   - the CPU lacks the ISA extension (AVX2 requires CPUID leaf-7 EBX bit 5
//     plus OS-enabled YMM state via XGETBV; NEON is architectural on
//     arm64),
//   - the build disables assembly (noasm or purego build tags), or
//   - the environment disables it (FPC_DISABLE_SIMD=1, read at init) or a
//     test called Disable;
//
// and also when the input is shorter than the kernel's minimum or a
// parameter is out of the assembly's range (Unpack64 above 57 kept bits,
// a Pack whose buffer lacks room for the kernel's unchecked stores). The
// assembly must emit exactly the scalar loop's results, pinned by this
// package's tests (every op under Disable against the dispatched level)
// and by internal/transforms' kernels_test.go harness.
//
// On arm64, NEON covers the diff+zigzag, OR-scan, RZE-bitmap, FCM-hash and
// 64-bit-pack families; the prefix sum, the BIT transpose, the 32-bit pack
// and the gather-based unpacks have no NEON body and run their scalar
// loops (see DESIGN.md §10 for the extension recipe). So the code arm64
// runs beyond its NEON bodies is the code every build tests.
//
// # Assembly calling conventions
//
// The assembly routines use the stable ABI0 (frame-pointer-free, arguments
// on the stack) and are declared //go:noescape: they never retain, grow,
// or allocate slices. Every op reslices its outputs to the job's length
// before anything else, so a short output panics at every level, and the
// per-ISA runners (ops_amd64.go, ops_arm64.go) pass the assembly only
// pointer/length pairs inside those validated slices.
package simd

import (
	"os"
	"sync/atomic"
)

// Feature levels, in the order Active reports them.
const (
	levelScalar int32 = iota
	levelAVX2
	levelNEON
)

// active is the dispatch level: levelScalar means every op runs its scalar
// loop alone. It is atomic only so tests can flip it under -race;
// production code writes it once at init.
var active atomic.Int32

// hwLevel is what the hardware supports, regardless of the current enable
// state; Enable restores to this.
var hwLevel int32

func init() {
	hwLevel = detect() // per-GOARCH; levelScalar when the build has no asm
	if os.Getenv("FPC_DISABLE_SIMD") == "1" {
		active.Store(levelScalar)
		return
	}
	active.Store(hwLevel)
}

// Active names the dispatched kernel path: "scalar", "avx2", or "neon".
// Surfaced by fpcz -stats, the fpcd expvar snapshot, and the bench
// emitters so measurements are attributable to a code path.
func Active() string {
	switch active.Load() {
	case levelAVX2:
		return "avx2"
	case levelNEON:
		return "neon"
	}
	return "scalar"
}

// Available names the best kernel path the hardware and build support,
// independent of FPC_DISABLE_SIMD/Disable.
func Available() string {
	switch hwLevel {
	case levelAVX2:
		return "avx2"
	case levelNEON:
		return "neon"
	}
	return "scalar"
}

// Disable makes every op run its scalar loop alone until Enable is called.
// It exists for the differential test harnesses (scalar-vs-simd in one
// process); production callers use FPC_DISABLE_SIMD=1 instead. Safe to
// call concurrently with op use: an op that already read the level
// finishes on the assembly, which emits identical bytes anyway.
func Disable() { active.Store(levelScalar) }

// Enable restores dispatch to the hardware-supported level (a no-op when
// the build or CPU has no kernels).
func Enable() { active.Store(hwLevel) }

// Enabled reports whether any assembly is currently dispatched.
func Enabled() bool { return active.Load() != levelScalar }
