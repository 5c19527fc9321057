package fused

import (
	"fpcompress/internal/simd"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// Ratio32 is the fused DIFFMS32+BIT32+RZE kernel behind SPratio (and the
// auto modes' 32-bit ratio candidate). The difference+zigzag feeds the
// 32x32 register-tile bit transpose directly, eliminating the DIFFMS
// intermediate and one full chunk pass; the plane-major layout is global
// to the chunk, so one pooled scratch buffer holds it and RZE's exact
// encoder (transforms.RZE) consumes it in place.
type Ratio32 struct {
	ref transforms.Pipeline
}

// NewRatio32 returns the fused SPratio kernel.
func NewRatio32() *Ratio32 {
	return &Ratio32{ref: transforms.Pipeline{
		transforms.DiffMS{Word: wordio.W32},
		transforms.Bit{Word: wordio.W32},
		transforms.RZE{},
	}}
}

// Name implements Kernel.
func (k *Ratio32) Name() string { return "FUSED(DIFFMS32+BIT32+RZE)" }

// Pipeline implements Kernel.
func (k *Ratio32) Pipeline() transforms.Pipeline { return k.ref }

// ForwardInto implements Kernel: per 32-word block, difference+zigzag into
// the transpose tile, transpose, and scatter into the pooled plane-major
// buffer; diff words past the last full block and trailing bytes are
// copied verbatim (BIT32's layout), then RZE encodes the buffer into dst.
func (k *Ratio32) ForwardInto(dst, src []byte) []byte {
	in := wordio.In32(src)
	defer in.Done()
	sw := in.W
	sp := transforms.GetBuf()
	defer transforms.PutBuf(sp)
	scratch := wordio.Resize(sp, len(src))
	planes := wordio.Out32(scratch)
	ow := planes.W
	nWords := len(sw)
	nb := nWords / 32
	var blk [32]uint32
	// SIMD path: diff+zigzag the whole chunk into a pooled stream, then the
	// strided block transpose runs over it in one call. The extra stream
	// buffer is the price of the wide transpose kernel; both paths emit the
	// same scratch bytes.
	diff := wordio.Scratch32(nWords)
	defer diff.Done()
	dw := diff.W
	if _, ok := simd.DiffZigOr32(dw, sw, 0); ok {
		if nb > 0 && !simd.BitFwd32(ow, dw, nb) {
			for b := 0; b < nb; b++ {
				copy(blk[:], dw[b*32:b*32+32])
				transforms.Transpose32(&blk)
				for plane := 0; plane < 32; plane++ {
					ow[plane*nb+b] = blk[plane]
				}
			}
		}
		copy(ow[nb*32:], dw[nb*32:])
	} else {
		prev := uint32(0)
		for b := 0; b < nb; b++ {
			for j, v := range sw[b*32 : b*32+32] {
				blk[j] = wordio.ZigZag32(v - prev)
				prev = v
			}
			transforms.Transpose32(&blk)
			for plane := 0; plane < 32; plane++ {
				ow[plane*nb+b] = blk[plane]
			}
		}
		for i := nb * 32; i < nWords; i++ {
			v := sw[i]
			ow[i] = wordio.ZigZag32(v - prev)
			prev = v
		}
	}
	planes.Done()
	copy(scratch[nWords*4:], src[nWords*4:])
	return transforms.RZE{}.ForwardInto(dst, scratch)
}

// InverseInto implements Kernel: RZE's exact decoder reconstructs the
// plane-major stream into pooled scratch (under the pipeline's interior
// stage budget), then each block is gathered, transposed, and
// un-zigzag+prefix-summed straight into dst in one pass.
func (k *Ratio32) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	sp := transforms.GetBuf()
	defer transforms.PutBuf(sp)
	bitted, err := transforms.RZE{}.InverseInto((*sp)[:0], enc, transforms.StageBudget(maxDecoded))
	if err != nil {
		return nil, err
	}
	*sp = bitted
	declen := len(bitted)
	if maxDecoded >= 0 && declen > maxDecoded {
		return nil, transforms.Corruptf("pipeline: decoded length %d exceeds budget %d", declen, maxDecoded)
	}
	in := wordio.In32(bitted)
	defer in.Done()
	ew := in.W
	ndst := transforms.Grow(dst, declen)
	out := ndst[len(ndst)-declen:]
	words := wordio.Out32(out)
	defer words.Done()
	ow := words.W
	nWords := len(ew)
	nb := nWords / 32
	var blk [32]uint32
	prev := uint32(0)
	// SIMD path: gathered block transposes reconstruct the DIFFMS stream
	// into a pooled buffer, then one un-zigzag + prefix-sum pass fills dst.
	diff := wordio.Scratch32(nb * 32)
	defer diff.Done()
	dw := diff.W
	if nb > 0 && simd.BitInv32(dw, ew, nb) {
		if p2, okz := simd.UnDiffZig32(ow[:nb*32], dw, 0); okz {
			prev = p2
		} else {
			for i, z := range dw {
				prev += wordio.UnZigZag32(z)
				ow[i] = prev
			}
		}
	} else {
		for b := 0; b < nb; b++ {
			for plane := 0; plane < 32; plane++ {
				blk[plane] = ew[plane*nb+b]
			}
			transforms.Transpose32(&blk)
			sub := ow[b*32 : b*32+32]
			for j, z := range blk {
				prev += wordio.UnZigZag32(z)
				sub[j] = prev
			}
		}
	}
	for i := nb * 32; i < nWords; i++ {
		prev += wordio.UnZigZag32(ew[i])
		ow[i] = prev
	}
	copy(out[nWords*4:], bitted[nWords*4:])
	return ndst, nil
}
