package fused

import (
	"fpcompress/internal/bitio"
	"fpcompress/internal/simd"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// Ratio64 is the fused DIFFMS64+RAZE+RARE kernel behind whole-input
// DPratio's chunk pipeline (the chunks of the FCM pre-stage's stream) and
// the Auto64 modes' raze+rare64 scheme; windowed DPratio runs FCMRatio64,
// which shares its core. The difference+zigzag writes straight into a pooled word
// slice that RAZE's word-stream encoder consumes in place, so the DIFFMS
// byte stream never materializes; RARE must see RAZE's complete output
// (its split k depends on the whole stream), so that stage remains
// composed, reading the pooled RAZE bytes.
type Ratio64 struct{}

// Name implements transforms.Transform.
func (k *Ratio64) Name() string { return "FUSED(DIFFMS64+RAZE+RARE)" }

// ForwardInto implements transforms.Transform.
func (k *Ratio64) ForwardInto(dst, src []byte) []byte {
	in := wordio.In64(src)
	defer in.Done()
	return ratio64Forward(dst, in.W, src[len(in.W)*8:])
}

// ratio64Forward is the shared fused core: diff+zigzag sw into pooled
// words, RAZE-encode them (with the verbatim tail) into pooled bytes, and
// RARE-encode that stream into dst. Byte-identical to the stage-by-stage
// DIFFMS64→RAZE→RARE pipeline.
func ratio64Forward(dst []byte, sw []uint64, tail []byte) []byte {
	diff := wordio.Scratch64(len(sw))
	defer diff.Done()
	dw := diff.W
	simd.DiffZigOr64(dw, sw, 0)
	rp := transforms.GetBuf()
	defer transforms.PutBuf(rp)
	razed := transforms.AdaptiveEncodeWords((*rp)[:0], dw, tail, false)
	*rp = razed
	return transforms.RARE{}.ForwardInto(dst, razed)
}

// InverseInto implements transforms.Transform: ratio64Inverse decodes under
// the pipeline's interior stage budget, and the decoded length is then
// checked against maxDecoded exactly, as Pipeline.InverseInto does.
func (k *Ratio64) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	out, err := ratio64Inverse(dst, enc, transforms.StageBudget(maxDecoded))
	if err != nil {
		return nil, err
	}
	if maxDecoded >= 0 && len(out)-len(dst) > maxDecoded {
		return nil, transforms.Corruptf("pipeline: decoded length %d exceeds budget %d", len(out)-len(dst), maxDecoded)
	}
	return out, nil
}

// ratio64Inverse appends the RARE → RAZE → DIFFMS64 decode of enc to dst,
// every stage under the stage budget sb: RARE and RAZE decode into pooled
// scratch, and the DIFFMS64 prefix sum writes into dst. It serves Ratio64
// and both FCMRatio64 segments.
func ratio64Inverse(dst, enc []byte, sb int) ([]byte, error) {
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
}

// Name implements transforms.Transform.
func (k *FCMRatio64) Name() string { return "FUSED(FCMW64)" }

// ForwardInto implements transforms.Transform.
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
	encA := ratio64Forward((*ap)[:0], fw[:splitW], nil)
	*ap = encA
	dst = bitio.AppendUvarint(dst, uint64(len(encA)))
	dst = append(dst, encA...)
	return ratio64Forward(dst, fw[splitW:], fcmOut[len(fw)*8:])
}

// InverseInto implements transforms.Transform: each segment's Ratio64
// stages decode under interior budgets into pooled scratch (FCM's
// value/distance stream is at most 2*decoded+8 bytes, within the interior
// headroom), then FCM's resolver writes the final words into dst and the
// decoded length is checked against maxDecoded exactly.
func (k *FCMRatio64) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	lenA, m := bitio.Uvarint(enc)
	if m <= 0 || lenA > uint64(len(enc)-m) {
		return nil, transforms.Corruptf("fcmw: bad segment length")
	}
	sb := transforms.StageBudget(maxDecoded)
	sp := transforms.GetBuf()
	defer transforms.PutBuf(sp)
	stream, err := ratio64Inverse((*sp)[:0], enc[m:m+int(lenA)], sb)
	if err != nil {
		*sp = stream
		return nil, transforms.Corruptf("fcmw: value segment: %v", err)
	}
	stream, err = ratio64Inverse(stream, enc[m+int(lenA):], sb)
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
