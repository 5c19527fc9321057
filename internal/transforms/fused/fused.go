// Package fused provides single-pass fused kernels for the hot fixed
// chunk pipelines of internal/core:
//
//	SPspeed: DIFFMS32 -> MPLG32   (Speed32)
//	DPspeed: DIFFMS64 -> MPLG64   (Speed64)
//	SPratio: DIFFMS32 -> BIT32 -> RZE   (Ratio32)
//	DPratio (after the whole-input FCM): DIFFMS64 -> RAZE -> RARE   (Ratio64)
//	windowed DPratio: FCMW64 = FCM(table) -> DIFFMS64 -> RAZE -> RARE   (FCMRatio64)
//
// Ratio64 also serves the auto modes' raze+rare64 scheme. Match resolves a
// pipeline to its kernel, or to the pipeline itself when no fusion exists
// (the SPbalance and DPbalance pipelines).
//
// The stage-by-stage transforms.Pipeline makes a full pass over the chunk
// per stage, ping-ponging intermediates through pooled buffers: SPspeed
// writes and re-reads a chunk-sized DIFFMS stream that exists only to feed
// MPLG, and SPratio adds a second full intermediate for the bit transpose.
// The fused kernels eliminate that memory traffic the same way FZ-GPU's
// fused quantize+shuffle kernel does: the speed kernels difference,
// zigzag, width-scan, and bit-pack each 512-byte MPLG subchunk through one
// register/L1-resident tile, so the DIFFMS stream never materializes; the
// ratio kernel differences straight into the 32x32 register-tile bit
// transpose, eliminating the DIFFMS intermediate and one full pass (the
// plane-major layout is global to the chunk, so its buffer — and RZE's
// whole-buffer bitmap — remain, in pooled scratch).
//
// # Byte-identical by construction, pinned by tests
//
// A fused kernel computes exactly the composition of its stages — same
// per-subchunk width fields, same MSB-first accumulator packing, same
// plane-major layout, same RZE byte format — so its output is
// byte-identical to the stage-by-stage pipeline and its decoder accepts
// exactly the same encodings. The single pass is the only path: it takes
// its words through wordio's copy-in/copy-out, so misaligned buffers and
// purego or big-endian builds run the same loop on pooled scratch.
// fused_test.go (offsets 0-7, odd lengths, -race) and FuzzFusedKernels
// pin each kernel to the bytes and the corrupt-input error behavior of
// its stage-by-stage transforms.Pipeline, taken from a table in the test.
//
// # Ownership and budgets
//
// ForwardInto/InverseInto follow the transforms append-into contract: they
// append to dst (which may be nil, and must not overlap src/enc) and
// return the extended slice. InverseInto enforces the same decode-budget
// semantics as transforms.Pipeline.InverseInto: interior stages get
// 2*maxDecoded+64 of headroom and the final decoded length is checked
// against maxDecoded exactly. All scratch is pooled; a warmed kernel
// allocates nothing beyond dst growth.
package fused

import (
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// Match resolves p to the transform that runs it: the fused kernel when the
// stage sequence (with default stage parameters) is a known fusion — a
// shared immutable instance — and p itself otherwise.
func Match(p transforms.Pipeline) transforms.Transform {
	switch len(p) {
	case 2:
		d, ok := p[0].(transforms.DiffMS)
		if !ok {
			return p
		}
		m, ok := p[1].(transforms.MPLG)
		if !ok || m.Subchunk != 0 || m.Word != d.Word {
			return p
		}
		if d.Word == wordio.W32 {
			return sharedSpeed32
		}
		return sharedSpeed64
	case 3:
		if d, ok := p[0].(transforms.DiffMS); ok && d.Word == wordio.W64 {
			if _, ok := p[1].(transforms.RAZE); !ok {
				return p
			}
			if _, ok := p[2].(transforms.RARE); !ok {
				return p
			}
			return sharedRatio64
		}
		d, ok := p[0].(transforms.DiffMS)
		if !ok || d.Word != wordio.W32 {
			return p
		}
		b, ok := p[1].(transforms.Bit)
		if !ok || b.Word != wordio.W32 {
			return p
		}
		z, ok := p[2].(transforms.RZE)
		if !ok || z.Granularity > 1 {
			return p
		}
		return sharedRatio32
	case 1:
		// FCMW64 is itself a composite (FCM table encoder + two segmented
		// DIFFMS64→RAZE→RARE chains); the kernel fuses both segments.
		if _, ok := p[0].(transforms.FCMW); ok {
			return sharedFCMRatio64
		}
	}
	return p
}

// Shared immutable kernel instances. Every kernel is safe for concurrent
// use (all per-call state is pooled or stack-resident), so one instance
// serves every caller.
var (
	sharedSpeed32    = &Speed32{}
	sharedSpeed64    = &Speed64{}
	sharedRatio32    = &Ratio32{}
	sharedRatio64    = &Ratio64{}
	sharedFCMRatio64 = &FCMRatio64{fcm: transforms.FCM{Table: true}}
)

// mplgSubchunkWords32/64 is the paper's 512-byte MPLG subchunk in words.
const (
	mplgSubchunkWords32 = 512 / 4
	mplgSubchunkWords64 = 512 / 8
)

// GateStats carries the per-chunk statistics the auto-mode selector's
// speed-wins gate needs, accumulated for free during a fused speed-kernel
// pass so the gate never has to materialize or re-read the DIFFMS stream.
type GateStats struct {
	// Words is the number of complete diff words in the chunk.
	Words int
	// Ors (32-bit kernels) holds the byte-swapped 8-word group ORs of the
	// diff stream's full 32-word blocks — 4 per block, ors[k*4+b] covering
	// source words k*32+(3-b)*8 … +8 — exactly the array the selector's
	// exact BIT32→RZE pricing is defined over. Reused across calls.
	Ors []uint32
	// Tail (32-bit kernels) holds the diff-stream bytes past the last full
	// 32-word block: the zigzagged difference words followed by the
	// verbatim trailing bytes (at most 127+3 bytes). Reused across calls.
	Tail []byte
	// Hist (64-bit kernels) is the leading-zero histogram of the zigzagged
	// difference words — the input to the selector's RAZE→RARE cost model.
	Hist [65]int
}
