package fused

import (
	"encoding/binary"
	"math/bits"

	"fpcompress/internal/bitio"
	"fpcompress/internal/simd"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// Speed32 is the fused DIFFMS32+MPLG32 kernel behind SPspeed (and the
// auto modes' 32-bit speed candidate). One pass over the source words
// differences, zigzags, width-scans, and bit-packs each 128-word MPLG
// subchunk through a stack tile, so the DIFFMS stream never exists outside
// registers/L1; the inverse unpacks, un-zigzags twice, and prefix-sums in
// one pass the same way.
type Speed32 struct {
	ref transforms.Pipeline
}

// NewSpeed32 returns the fused SPspeed kernel.
func NewSpeed32() *Speed32 {
	return &Speed32{ref: transforms.Pipeline{
		transforms.DiffMS{Word: wordio.W32},
		transforms.MPLG{Word: wordio.W32},
	}}
}

// Name implements Kernel.
func (k *Speed32) Name() string { return "FUSED(DIFFMS32+MPLG32)" }

// Pipeline implements Kernel.
func (k *Speed32) Pipeline() transforms.Pipeline { return k.ref }

// ForwardInto implements Kernel.
func (k *Speed32) ForwardInto(dst, src []byte) []byte {
	return k.ForwardStatsInto(dst, src, nil)
}

// ForwardStatsInto is ForwardInto plus speed-wins gate statistics (gs may
// be nil): the group ORs and diff tail the selector's exact BIT32→RZE
// pricing needs, accumulated inside the fused pass.
//
// The fused encode: per 128-word subchunk, difference+zigzag
// into a stack tile while OR-accumulating the width scan (the OR shares
// its top bit with the max, so keep and the fallback flag come out
// identically), then pack the tile with the register-resident accumulator.
// The emitted bytes match transforms.MPLG's encoder over the DIFFMS
// stream exactly: same uvarint prefix, same 7-bit subchunk headers, same
// MSB-first packing, same verbatim tail.
func (k *Speed32) ForwardStatsInto(dst, src []byte, gs *GateStats) []byte {
	in := wordio.In32(src)
	defer in.Done()
	sw := in.W
	nWords := len(sw)
	tail := src[nWords*4:]
	nsub := (nWords + mplgSubchunkWords32 - 1) / mplgSubchunkWords32
	if gs != nil {
		gs.Words = nWords
		gs.Ors = gs.Ors[:0]
		gs.Tail = gs.Tail[:0]
	}
	dst = bitio.AppendUvarint(dst, uint64(len(src)))
	start0 := len(dst)
	dst = transforms.Grow(dst, (nsub*7+nWords*32+7)/8+8)
	buf := dst
	bp := start0
	var acc uint64
	var nacc uint
	var tile [mplgSubchunkWords32]uint32
	prev := uint32(0)
	nb := nWords / 32 // full 32-word blocks (for gate statistics)
	for start := 0; start < nWords; start += mplgSubchunkWords32 {
		end := start + mplgSubchunkWords32
		if end > nWords {
			end = nWords
		}
		sub := sw[start:end]
		t := tile[:len(sub)]
		m := simd.DiffZigOr32(t, sub, prev)
		prev = sub[len(sub)-1]
		if gs != nil {
			// Group ORs of the diff words, 4 per full 32-word block, in the
			// byte-swapped order the BIT32→RZE pricing expects. Diff words
			// past the last full block go to the tail, verbatim as bytes.
			for g := start; g+32 <= end; g += 32 {
				base := g - start
				for b := 3; b >= 0; b-- {
					q := base + b*8
					or := t[q] | t[q+1] | t[q+2] | t[q+3] |
						t[q+4] | t[q+5] | t[q+6] | t[q+7]
					gs.Ors = append(gs.Ors, or)
				}
			}
			for i := max(nb*32, start); i < end; i++ {
				gs.Tail = binary.LittleEndian.AppendUint32(gs.Tail, t[i-start])
			}
		}
		var flag uint64
		zig := false
		if m >= 1<<31 {
			// MPLG's enhancement: one extra magnitude-sign conversion.
			flag, zig = 1, true
			m = simd.ZigOr32(t)
		}
		keep := uint(32 - bits.LeadingZeros32(m))
		acc = acc<<7 | flag<<6 | uint64(keep)
		nacc += 7
		if nacc >= 32 {
			nacc -= 32
			binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
			bp += 4
			acc &= 1<<nacc - 1
		}
		if keep == 0 {
			continue
		}
		bp, acc, nacc = simd.Pack32(buf, bp, acc, nacc, t, keep, zig)
	}
	bp = transforms.BitFinish(buf, bp, acc, nacc)
	if gs != nil {
		gs.Tail = append(gs.Tail, tail...)
	}
	return append(dst[:bp], tail...)
}

// InverseInto implements Kernel: unpack each subchunk's words from the bit
// stream into the stack tile and run the un-zigzag + prefix-sum
// reconstruction over it, exactly composing MPLG32's and DIFFMS32's
// inverses.
func (k *Speed32) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	declen64, n := bitio.Uvarint(enc)
	if n == 0 {
		return nil, transforms.Corruptf("MPLG: bad length prefix")
	}
	// The same acceptance set as the unfused chain: MPLG's intrinsic
	// MaxDecoded cap and plausibility bound, plus the pipeline's exact
	// final-length check against the caller budget.
	if declen64 > transforms.MaxDecoded {
		return nil, transforms.Corruptf("MPLG: decoded length %d exceeds budget %d", declen64, transforms.MaxDecoded)
	}
	if maxDecoded >= 0 && declen64 > uint64(maxDecoded) {
		return nil, transforms.Corruptf("pipeline: decoded length %d exceeds budget %d", declen64, maxDecoded)
	}
	declen := int(declen64)
	if declen > (len(enc)+2)*8*512 {
		return nil, transforms.Corruptf("MPLG: decoded length %d implausible for %d encoded bytes", declen, len(enc))
	}
	nWords := declen / 4
	tailLen := declen - nWords*4
	body := enc[n:]
	ndst := transforms.Grow(dst, declen)
	out := ndst[len(ndst)-declen:]
	words := wordio.Out32(out)
	defer words.Done()
	ow := words.W

	bpool := transforms.GetBuf()
	defer transforms.PutBuf(bpool)
	pad := wordio.Resize(bpool, len(body)+8)
	copy(pad, body)
	clear(pad[len(body):])
	totalBits := uint(len(body)) * 8
	pos := uint(0)
	prev := uint32(0)
	var tile [mplgSubchunkWords32]uint32
	for start := 0; start < nWords; start += mplgSubchunkWords32 {
		end := start + mplgSubchunkWords32
		if end > nWords {
			end = nWords
		}
		if pos+7 > totalBits {
			return nil, transforms.Corruptf("MPLG: truncated header")
		}
		hdr := uint32(binary.BigEndian.Uint64(pad[pos>>3:])>>(57-(pos&7))) & 0x7f
		pos += 7
		keep := uint(hdr & 0x3f)
		if keep > 32 {
			return nil, transforms.Corruptf("MPLG: kept bits %d > word size", keep)
		}
		sub := ow[start:end]
		if keep == 0 {
			// Zero diff words: every output word repeats the running value.
			for j := range sub {
				sub[j] = prev
			}
			continue
		}
		if pos+keep*uint(len(sub)) > totalBits {
			return nil, transforms.Corruptf("MPLG: truncated values")
		}
		// Recover the DIFFMS stream words into the tile, then run the
		// un-zigzag + prefix-sum reconstruction over them.
		t := tile[:len(sub)]
		pos = uint(simd.Unpack32(t, pad, uint64(pos), keep, hdr>>6 == 1))
		prev = simd.UnDiffZig32(sub, t, prev)
	}
	rest := int((pos + 7) / 8)
	if len(body)-rest < tailLen {
		return nil, transforms.Corruptf("MPLG: truncated tail")
	}
	copy(out[nWords*4:], body[rest:rest+tailLen])
	return ndst, nil
}
