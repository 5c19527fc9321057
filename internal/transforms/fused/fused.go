// Package fused provides single-pass fused kernels for the hot fixed
// chunk pipelines of internal/core:
//
//	SPspeed: DIFFMS32 -> MPLG32   (Speed32)
//	DPspeed: DIFFMS64 -> MPLG64   (Speed64)
//	SPratio: DIFFMS32 -> BIT32 -> RZE   (Ratio32)
//	windowed DPratio: DIFFMS64 -> RAZE -> RARE   (Ratio64)
//	windowed DPratio with FCM: FCM(table) -> DIFFMS64 -> RAZE -> RARE   (FCMRatio64)
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
// Pipeline() returns the stage-by-stage composition purely as the test
// oracle: fused_test.go (offsets 0-7, odd lengths, -race) and
// FuzzFusedKernels pin the kernels to its bytes and its corrupt-input
// error behavior.
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

// Kernel is one fused single-pass pipeline. Implementations are safe for
// concurrent use (all per-call state is pooled or stack-resident).
type Kernel interface {
	// Name identifies the fusion, e.g. "FUSED(DIFFMS32+MPLG32)".
	Name() string
	// ForwardInto appends the encoding of src to dst and returns the
	// extended slice; byte-identical to the unfused pipeline's ForwardInto.
	ForwardInto(dst, src []byte) []byte
	// InverseInto appends the decoded bytes to dst under the pipeline
	// budget rules (see the package comment) and returns the extended
	// slice. On error the returned slice is nil.
	InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error)
	// Pipeline returns the equivalent stage-by-stage pipeline, the oracle
	// the kernel's tests compare against.
	Pipeline() transforms.Pipeline
}

// Match returns the fused kernel equivalent to p, if the stage sequence
// (with default stage parameters) is a known fusion. The returned kernel
// is a shared immutable instance.
func Match(p transforms.Pipeline) (Kernel, bool) {
	switch len(p) {
	case 2:
		d, ok := p[0].(transforms.DiffMS)
		if !ok {
			return nil, false
		}
		m, ok := p[1].(transforms.MPLG)
		if !ok || m.Subchunk != 0 || m.Word != d.Word {
			return nil, false
		}
		if d.Word == wordio.W32 {
			return sharedSpeed32, true
		}
		return sharedSpeed64, true
	case 3:
		if d, ok := p[0].(transforms.DiffMS); ok && d.Word == wordio.W64 {
			if _, ok := p[1].(transforms.RAZE); !ok {
				return nil, false
			}
			if _, ok := p[2].(transforms.RARE); !ok {
				return nil, false
			}
			return sharedRatio64, true
		}
		d, ok := p[0].(transforms.DiffMS)
		if !ok || d.Word != wordio.W32 {
			return nil, false
		}
		b, ok := p[1].(transforms.Bit)
		if !ok || b.Word != wordio.W32 {
			return nil, false
		}
		z, ok := p[2].(transforms.RZE)
		if !ok || z.Granularity > 1 {
			return nil, false
		}
		return sharedRatio32, true
	case 1:
		// FCMW64 is itself a composite (FCM table encoder + two segmented
		// DIFFMS64→RAZE→RARE chains); the kernel fuses both segments.
		if _, ok := p[0].(transforms.FCMW); ok {
			return sharedFCMRatio64, true
		}
	}
	return nil, false
}

// Shared immutable kernel instances (the kernels hold only their oracle
// pipelines, so one instance serves every caller).
var (
	sharedSpeed32    = NewSpeed32()
	sharedSpeed64    = NewSpeed64()
	sharedRatio32    = NewRatio32()
	sharedRatio64    = NewRatio64()
	sharedFCMRatio64 = NewFCMRatio64()
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
