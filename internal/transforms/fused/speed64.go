package fused

import (
	"encoding/binary"
	"math/bits"

	"fpcompress/internal/bitio"
	"fpcompress/internal/simd"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// Speed64 is the fused DIFFMS64+MPLG64 kernel behind DPspeed (and the
// auto modes' 64-bit speed candidate): the 64-word-subchunk analogue of
// Speed32, with MPLG64's 8-bit subchunk headers and split packing for
// kept widths above 32 bits.
type Speed64 struct {
	ref transforms.Pipeline
}

// NewSpeed64 returns the fused DPspeed kernel.
func NewSpeed64() *Speed64 {
	return &Speed64{ref: transforms.Pipeline{
		transforms.DiffMS{Word: wordio.W64},
		transforms.MPLG{Word: wordio.W64},
	}}
}

// Name implements Kernel.
func (k *Speed64) Name() string { return "FUSED(DIFFMS64+MPLG64)" }

// Pipeline implements Kernel.
func (k *Speed64) Pipeline() transforms.Pipeline { return k.ref }

// ForwardInto implements Kernel.
func (k *Speed64) ForwardInto(dst, src []byte) []byte {
	return k.ForwardStatsInto(dst, src, nil)
}

// ForwardStatsInto is ForwardInto plus the selector gate's leading-zero
// histogram of the diff stream (the RAZE→RARE cost-model input),
// accumulated inside the fused pass (gs may be nil). It mirrors
// transforms.MPLG's 64-bit encoder over the DIFFMS64 stream, with the
// difference+zigzag fused into the subchunk tile fill.
func (k *Speed64) ForwardStatsInto(dst, src []byte, gs *GateStats) []byte {
	in := wordio.In64(src)
	defer in.Done()
	sw := in.W
	nWords := len(sw)
	tail := src[nWords*8:]
	nsub := (nWords + mplgSubchunkWords64 - 1) / mplgSubchunkWords64
	if gs != nil {
		gs.Words = nWords
		gs.Hist = [65]int{}
	}
	dst = bitio.AppendUvarint(dst, uint64(len(src)))
	start0 := len(dst)
	dst = transforms.Grow(dst, (nsub*8+nWords*64+7)/8+8)
	buf := dst
	bp := start0
	var acc uint64
	var nacc uint
	var tile [mplgSubchunkWords64]uint64
	prev := uint64(0)
	for start := 0; start < nWords; start += mplgSubchunkWords64 {
		end := start + mplgSubchunkWords64
		if end > nWords {
			end = nWords
		}
		sub := sw[start:end]
		t := tile[:len(sub)]
		m := simd.DiffZigOr64(t, sub, prev)
		prev = sub[len(sub)-1]
		if gs != nil {
			for _, z := range t {
				gs.Hist[bits.LeadingZeros64(z)]++
			}
		}
		var flag uint64
		zig := false
		if m >= 1<<63 {
			flag, zig = 1, true
			m = simd.ZigOr64(t)
		}
		keep := uint(64 - bits.LeadingZeros64(m))
		acc = acc<<8 | flag<<7 | uint64(keep)
		nacc += 8
		if nacc >= 32 {
			nacc -= 32
			binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
			bp += 4
			acc &= 1<<nacc - 1
		}
		if keep == 0 {
			continue
		}
		bp, acc, nacc = simd.Pack64(buf, bp, acc, nacc, t, keep, zig)
	}
	bp = transforms.BitFinish(buf, bp, acc, nacc)
	return append(dst[:bp], tail...)
}

// InverseInto implements Kernel: MPLG64 unpack and DIFFMS64 prefix-sum
// reconstruction fused per subchunk through the stack tile, mirroring
// transforms.MPLG's 64-bit decoder's bit stream handling exactly.
func (k *Speed64) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	declen64, n := bitio.Uvarint(enc)
	if n == 0 {
		return nil, transforms.Corruptf("MPLG: bad length prefix")
	}
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
	nWords := declen / 8
	tailLen := declen - nWords*8
	body := enc[n:]
	ndst := transforms.Grow(dst, declen)
	out := ndst[len(ndst)-declen:]
	words := wordio.Out64(out)
	defer words.Done()
	ow := words.W

	bpool := transforms.GetBuf()
	defer transforms.PutBuf(bpool)
	pad := wordio.Resize(bpool, len(body)+8)
	copy(pad, body)
	clear(pad[len(body):])
	totalBits := uint(len(body)) * 8
	pos := uint(0)
	prev := uint64(0)
	var tile [mplgSubchunkWords64]uint64
	for start := 0; start < nWords; start += mplgSubchunkWords64 {
		end := start + mplgSubchunkWords64
		if end > nWords {
			end = nWords
		}
		if pos+8 > totalBits {
			return nil, transforms.Corruptf("MPLG: truncated header")
		}
		hdr := uint32(binary.BigEndian.Uint64(pad[pos>>3:])>>(56-(pos&7))) & 0xff
		pos += 8
		keep := uint(hdr & 0x7f)
		if keep > 64 {
			return nil, transforms.Corruptf("MPLG: kept bits %d > word size", keep)
		}
		sub := ow[start:end]
		if keep == 0 {
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
		pos = uint(simd.Unpack64(t, pad, uint64(pos), keep, hdr>>7 == 1))
		prev = simd.UnDiffZig64(sub, t, prev)
	}
	rest := int((pos + 7) / 8)
	if len(body)-rest < tailLen {
		return nil, transforms.Corruptf("MPLG: truncated tail")
	}
	copy(out[nWords*8:], body[rest:rest+tailLen])
	return ndst, nil
}
