package fused

import (
	"fpcompress/internal/simd"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// Ratio32 is the fused DIFFMS32+BIT32+RZE kernel behind SPratio (and the
// auto modes' 32-bit ratio candidate). The difference+zigzag words go to
// pooled word scratch that the strided block transpose reads directly, so
// no DIFFMS byte stage is ever built; the plane-major layout is global to
// the chunk, so one pooled scratch buffer holds it and RZE's exact
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

// ForwardInto implements Kernel: difference+zigzag the chunk into a pooled
// word stream, run the strided block transpose over it into the pooled
// plane-major buffer, copy diff words past the last full block and
// trailing bytes verbatim (BIT32's layout), then RZE encodes the buffer
// into dst.
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
	diff := wordio.Scratch32(nWords)
	defer diff.Done()
	dw := diff.W
	simd.DiffZigOr32(dw, sw, 0)
	simd.BitFwd32(ow, dw, nb)
	copy(ow[nb*32:], dw[nb*32:])
	planes.Done()
	copy(scratch[nWords*4:], src[nWords*4:])
	return transforms.RZE{}.ForwardInto(dst, scratch)
}

// InverseInto implements Kernel: RZE's exact decoder reconstructs the
// plane-major stream into pooled scratch (under the pipeline's interior
// stage budget), the gathered block transposes rebuild the DIFFMS stream
// into a pooled buffer, and one un-zigzag + prefix-sum pass fills dst.
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
	diff := wordio.Scratch32(nb * 32)
	defer diff.Done()
	dw := diff.W
	simd.BitInv32(dw, ew, nb)
	prev := simd.UnDiffZig32(ow[:nb*32], dw, 0)
	simd.UnDiffZig32(ow[nb*32:], ew[nb*32:], prev)
	copy(out[nWords*4:], bitted[nWords*4:])
	return ndst, nil
}
