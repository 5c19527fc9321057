package fused

import (
	"math/bits"

	"fpcompress/internal/bitio"
	"fpcompress/internal/simd"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// Ratio64 is the fused DIFFMS64+RAZE+RARE kernel behind the windowed
// DPratio chunk pipeline (and the windowed auto mode's 64-bit ratio
// candidate). The difference+zigzag writes straight into a pooled word
// slice that RAZE's word-stream encoder consumes in place, so the DIFFMS
// byte stream never materializes; RARE must see RAZE's complete output
// (its split k depends on the whole stream), so that stage remains
// composed, reading the pooled RAZE bytes.
type Ratio64 struct {
	ref transforms.Pipeline
}

// NewRatio64 returns the fused windowed-DPratio chunk kernel.
func NewRatio64() *Ratio64 {
	return &Ratio64{ref: transforms.Pipeline{
		transforms.DiffMS{Word: wordio.W64},
		transforms.RAZE{},
		transforms.RARE{},
	}}
}

// Name implements Kernel.
func (k *Ratio64) Name() string { return "FUSED(DIFFMS64+RAZE+RARE)" }

// Pipeline implements Kernel.
func (k *Ratio64) Pipeline() transforms.Pipeline { return k.ref }

// ForwardInto implements Kernel.
func (k *Ratio64) ForwardInto(dst, src []byte) []byte {
	return k.ForwardStatsInto(dst, src, nil)
}

// ForwardStatsInto is ForwardInto plus the selector gate's leading-zero
// histogram of the diff stream (the RAZE→RARE cost-model input),
// accumulated over the pooled diff words the fused pass materializes
// anyway. gs may be nil.
func (k *Ratio64) ForwardStatsInto(dst, src []byte, gs *GateStats) []byte {
	in := wordio.In64(src)
	defer in.Done()
	return ratio64Forward(dst, in.W, src[len(in.W)*8:], gs)
}

// ratio64Forward is the shared fused core: diff+zigzag sw into pooled
// words, RAZE-encode them (with the verbatim tail) into pooled bytes, and
// RARE-encode that stream into dst. Byte-identical to the stage-by-stage
// DIFFMS64→RAZE→RARE pipeline.
func ratio64Forward(dst []byte, sw []uint64, tail []byte, gs *GateStats) []byte {
	diff := wordio.Scratch64(len(sw))
	defer diff.Done()
	dw := diff.W
	simd.DiffZigOr64(dw, sw, 0)
	if gs != nil {
		gs.Words = len(sw)
		gs.Hist = [65]int{}
		for _, z := range dw {
			gs.Hist[bits.LeadingZeros64(z)]++
		}
	}
	rp := transforms.GetBuf()
	defer transforms.PutBuf(rp)
	razed := transforms.AdaptiveEncodeWords((*rp)[:0], dw, tail, false)
	*rp = razed
	return transforms.RARE{}.ForwardInto(dst, razed)
}

// InverseInto implements Kernel: RARE and RAZE decode under the pipeline's
// interior stage budget through pooled scratch, and the final DIFFMS64
// prefix-sum reconstruction (already a fused one-pass kernel) writes into
// dst; the decoded length is then checked against maxDecoded exactly, as
// Pipeline.InverseInto does.
func (k *Ratio64) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	sb := transforms.StageBudget(maxDecoded)
	rp := transforms.GetBuf()
	defer transforms.PutBuf(rp)
	bitted, err := transforms.RARE{}.InverseInto((*rp)[:0], enc, sb)
	if err != nil {
		return nil, err
	}
	*rp = bitted
	zp := transforms.GetBuf()
	defer transforms.PutBuf(zp)
	diffed, err := transforms.RAZE{}.InverseInto((*zp)[:0], bitted, sb)
	if err != nil {
		return nil, err
	}
	*zp = diffed
	if maxDecoded >= 0 && len(diffed) > maxDecoded {
		return nil, transforms.Corruptf("pipeline: decoded length %d exceeds budget %d", len(diffed), maxDecoded)
	}
	out, err := transforms.DiffMS{Word: wordio.W64}.InverseInto(dst, diffed, maxDecoded)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FCMRatio64 is the fused windowed-DPratio kernel, FCMW64's one-pass
// execution: FCM's table encoder (Table mode — per-chunk inputs are small
// enough that the direct-mapped table stays L1-resident) writes its
// value/distance stream into pooled scratch, and the Ratio64 core encodes
// the value half and the distance half as the two independent segments
// transforms.FCMW defines, neither materializing its DIFFMS intermediate.
// The FCM configuration is part of the kernel identity: the encoder's
// matches (and therefore the bytes) depend on it.
type FCMRatio64 struct {
	fcm transforms.FCM
	ref transforms.Pipeline
}

// NewFCMRatio64 returns the fused windowed-DPratio chunk kernel with the
// FCM pre-stage.
func NewFCMRatio64() *FCMRatio64 {
	return &FCMRatio64{
		fcm: transforms.FCM{Table: true},
		ref: transforms.Pipeline{transforms.FCMW{}},
	}
}

// Name implements Kernel.
func (k *FCMRatio64) Name() string { return "FUSED(FCMW64)" }

// Pipeline implements Kernel.
func (k *FCMRatio64) Pipeline() transforms.Pipeline { return k.ref }

// ForwardInto implements Kernel.
func (k *FCMRatio64) ForwardInto(dst, src []byte) []byte {
	fp := transforms.GetBuf()
	defer transforms.PutBuf(fp)
	fcmOut := k.fcm.ForwardInto((*fp)[:0], src)
	*fp = fcmOut
	in := wordio.In64(fcmOut)
	defer in.Done()
	fw := in.W
	// Segment A: FCM header + value array (always whole words). Segment B:
	// distance array + the chunk's verbatim tail.
	splitW := transforms.FCMWSplit(len(src)) / 8
	ap := transforms.GetBuf()
	defer transforms.PutBuf(ap)
	encA := ratio64Forward((*ap)[:0], fw[:splitW], nil, nil)
	*ap = encA
	dst = bitio.AppendUvarint(dst, uint64(len(encA)))
	dst = append(dst, encA...)
	return ratio64Forward(dst, fw[splitW:], fcmOut[len(fw)*8:], nil)
}

// InverseInto implements Kernel: each segment's Ratio64 stages decode
// under interior budgets into pooled scratch (FCM's value/distance stream
// is at most 2*decoded+8 bytes, within the interior headroom), then FCM's
// resolver writes the final words into dst and the decoded length is
// checked against maxDecoded exactly.
func (k *FCMRatio64) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	lenA, m := bitio.Uvarint(enc)
	if m <= 0 || lenA > uint64(len(enc)-m) {
		return nil, transforms.Corruptf("fcmw: bad segment length")
	}
	sb := transforms.StageBudget(maxDecoded)
	sp := transforms.GetBuf()
	defer transforms.PutBuf(sp)
	stream, err := fcmwSegInverse((*sp)[:0], enc[m:m+int(lenA)], sb)
	if err != nil {
		*sp = stream
		return nil, transforms.Corruptf("fcmw: value segment: %v", err)
	}
	stream, err = fcmwSegInverse(stream, enc[m+int(lenA):], sb)
	*sp = stream
	if err != nil {
		return nil, transforms.Corruptf("fcmw: distance segment: %v", err)
	}
	out, err := k.fcm.InverseInto(dst, stream, sb)
	if err != nil {
		return nil, err
	}
	if maxDecoded >= 0 && len(out)-len(dst) > maxDecoded {
		return nil, transforms.Corruptf("pipeline: decoded length %d exceeds budget %d", len(out)-len(dst), maxDecoded)
	}
	return out, nil
}

// fcmwSegInverse appends one FCMW segment's decode (RARE → RAZE →
// DIFFMS64) to dst under the stage budget.
func fcmwSegInverse(dst, enc []byte, sb int) ([]byte, error) {
	rp := transforms.GetBuf()
	defer transforms.PutBuf(rp)
	bitted, err := transforms.RARE{}.InverseInto((*rp)[:0], enc, sb)
	if err != nil {
		return dst, err
	}
	*rp = bitted
	zp := transforms.GetBuf()
	defer transforms.PutBuf(zp)
	diffed, err := transforms.RAZE{}.InverseInto((*zp)[:0], bitted, sb)
	if err != nil {
		return dst, err
	}
	*zp = diffed
	return transforms.DiffMS{Word: wordio.W64}.InverseInto(dst, diffed, sb)
}
