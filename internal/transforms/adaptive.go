package transforms

import (
	"math/bits"
	"slices"

	"fpcompress/internal/bitio"
	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// This file holds the machinery shared by RAZE and RARE (paper §3.2,
// Figure 7). Both transforms split every 64-bit word into a top-k-bit piece
// and a bottom-(64-k)-bit piece, keep the bottoms verbatim (double-precision
// mantissa tails are close to random and incompressible), and eliminate
// "uninteresting" top pieces — all-zero pieces for RAZE, pieces identical to
// the previous word's for RARE — behind a one-bit-per-word bitmap that is
// itself compressed with the repeated repeat-elimination scheme from RZE.
//
// The adaptive part: k is chosen per chunk from a histogram of
// leading-zero-bit counts (RAZE) or leading-common-bit counts (RARE). Every
// word with >= k leading zeros/common bits contributes an eliminated piece,
// so with cnt[k] = |{i : lead[i] >= k}| the encoded size in bits is
//
//	n (bitmap) + (n-cnt[k])*k (kept pieces) + n*(64-k) (bottoms)
//	  = 65n - k*cnt[k]
//
// and k=0 (store everything, no bitmap) costs 64n. The k maximizing
// k*cnt[k] is computed from a prefix sum over the histogram bins — no need
// to try all splits against the data.

// adaptiveHist returns the split-model histogram of sw: hist[l] counts
// the words with exactly l eliminable leading bits — leading zeros for
// RAZE, leading bits shared with the previous word (the first compared
// against zero) for RARE, selected by common. Four interleaved
// sub-histograms keep consecutive equal counts (smooth data) from
// serializing on one bin's increment.
func adaptiveHist(sw []uint64, common bool) [65]int {
	var h [4][65]int
	i := 0
	prev := uint64(0)
	if common {
		for ; i+4 <= len(sw); i += 4 {
			s := sw[i : i+4 : i+4]
			v0, v1, v2, v3 := s[0], s[1], s[2], s[3]
			h[0][bits.LeadingZeros64(v0^prev)]++
			h[1][bits.LeadingZeros64(v1^v0)]++
			h[2][bits.LeadingZeros64(v2^v1)]++
			h[3][bits.LeadingZeros64(v3^v2)]++
			prev = v3
		}
	} else {
		for ; i+4 <= len(sw); i += 4 {
			s := sw[i : i+4 : i+4]
			h[0][bits.LeadingZeros64(s[0])]++
			h[1][bits.LeadingZeros64(s[1])]++
			h[2][bits.LeadingZeros64(s[2])]++
			h[3][bits.LeadingZeros64(s[3])]++
		}
	}
	for _, v := range sw[i:] {
		if common {
			h[0][bits.LeadingZeros64(v^prev)]++
			prev = v
		} else {
			h[0][bits.LeadingZeros64(v)]++
		}
	}
	var hist [65]int
	for l := range hist {
		hist[l] = h[0][l] + h[1][l] + h[2][l] + h[3][l]
	}
	return hist
}

// adaptiveKept marks in bm (zeroed, (len(sw)+7)/8 bytes) the words whose
// top k bits (1 <= k <= 64) must be stored — nonzero for RAZE, different
// from the previous word's for RARE, exactly the words with fewer than k
// eliminable leading bits — and gathers those tops, shifted down to their
// k-bit fields, into the front of tops. It writes every word's (64-k)-bit
// bottom to bots and returns the number of kept tops; tops and bots hold
// len(sw) words. A word's top k bits are nonzero exactly when it exceeds
// the all-ones bottom mask, so the test is one compare.
func adaptiveKept(bm []byte, tops, bots, sw []uint64, k int, common bool) int {
	lim := ^uint64(0) >> uint(k)
	bw := uint(64-k) & 63
	bots = bots[:len(sw)]
	nKept := 0
	if common {
		prev := uint64(0)
		for i, v := range sw {
			bots[i] = v & lim
			if v^prev > lim {
				bm[i>>3] |= 0x80 >> (i & 7)
				tops[nKept] = v >> bw
				nKept++
			}
			prev = v
		}
		return nKept
	}
	for i, v := range sw {
		bots[i] = v & lim
		if v > lim {
			bm[i>>3] |= 0x80 >> (i & 7)
			tops[nKept] = v >> bw
			nKept++
		}
	}
	return nKept
}

// bestSplitHist returns the k in [0,64] minimizing the modeled encoded
// size, given the histogram hist[l] = words with exactly l eliminable
// leading bits over n words, plus the modeled gain k*cnt[k] in bits.
func bestSplitHist(hist *[65]int, n int) (bestK, bestGain int) {
	// cnt[k] = number of words with lead >= k (suffix sum).
	cnt := 0
	bestK, bestGain = 0, n // k=0 costs 64n = 65n - n, i.e. gain n
	for k := 64; k >= 1; k-- {
		cnt += hist[k]
		// hist[64] counts words where all 64 bits are eliminable; they are
		// included in every cnt[k] for k <= 64.
		if gain := k * cnt; gain > bestGain || (gain == bestGain && k < bestK) {
			bestK, bestGain = k, gain
		}
	}
	return bestK, bestGain
}

// SplitModelBits exposes the adaptive transforms' size model for the
// auto-mode selector: given the leading-eliminable-bit histogram of an
// n-word chunk it returns the modeled encoded size in bits, 65n - k*cnt[k]
// for the same k the encoders choose (the model RAZE and RARE minimize).
func SplitModelBits(hist *[65]int, n int) int {
	_, gain := bestSplitHist(hist, n)
	return 65*n - gain
}

// adaptiveForwardInto encodes src for either RAZE or RARE (selected by
// common) appending to dst; all scratch (the elimination bitmap and the
// split tops and bottoms) is pooled, and the kept/bottom pieces are
// bit-packed directly into dst.
func adaptiveForwardInto(dst, src []byte, common bool) []byte {
	sw := wordio.In64(src)
	defer sw.Done()
	return AdaptiveEncodeWords(dst, sw.W, src[len(sw.W)*8:], common)
}

// AdaptiveEncodeWords appends the RAZE (common=false) or RARE (common=true)
// encoding of the word stream sw followed by the verbatim tail — exactly
// the bytes ForwardInto produces for the equivalent byte stream. The fused
// ratio kernels call it with their register-resident diff stream.
func AdaptiveEncodeWords(dst []byte, sw []uint64, tail []byte, common bool) []byte {
	n := len(sw)
	hist := adaptiveHist(sw, common)
	k, _ := bestSplitHist(&hist, n)

	dst = slices.Grow(dst, n*8+len(tail)+n+32)
	dst = bitio.AppendUvarint(dst, uint64(n*8+len(tail)))
	dst = append(dst, byte(k))
	if k == 0 {
		base := len(dst)
		dst = Grow(dst, n*8)
		raw := wordio.Out64(dst[base:])
		copy(raw.W, sw)
		raw.Done()
		return append(dst, tail...)
	}
	bp := GetBuf()
	defer PutBuf(bp)
	bm := wordio.Resize(bp, (n+7)/8)
	clear(bm)
	scratch := wordio.Scratch64(2 * n)
	defer scratch.Done()
	tops, bots := scratch.W[:n], scratch.W[n:]
	nKept := adaptiveKept(bm, tops, bots, sw, k, common)
	dst = appendRepeatBitmap(dst, bm)
	return append(adaptivePack(dst, tops[:nKept], bots, k), tail...)
}

// adaptivePack appends the kept k-bit tops, then the (64-k)-bit bottoms,
// each region byte-aligned and each one simd.Pack64 call, which ORs whole
// source words and so requires every value to fit its field.
func adaptivePack(dst []byte, tops, bots []uint64, k int) []byte {
	bw := uint(64 - k)
	start := len(dst)
	dst = Grow(dst, (len(tops)*k+7)/8+(len(bots)*int(bw)+7)/8+8)
	bp := packDense(dst, start, tops, uint(k))
	if bw > 0 {
		bp = packDense(dst, bp, bots, bw)
	}
	return dst[:bp]
}

// packDense appends len(vals) width-bit fields (every value already fits
// its field) to buf at bit-aligned byte position bp and byte-aligns the
// stream, returning the new position.
func packDense(buf []byte, bp int, vals []uint64, width uint) int {
	bp, acc, nacc := simd.Pack64(buf, bp, 0, 0, vals, width, false)
	return BitFinish(buf, bp, acc, nacc)
}

// adaptiveInverseInto decodes the common RAZE/RARE layout appending to dst;
// repeat selects the reconstruction rule for eliminated top pieces. All
// scratch is sized from declen, so validating it against the budget up
// front bounds the whole decode.
func adaptiveInverseInto(dst, enc []byte, repeat bool, maxDecoded int) ([]byte, error) {
	declen64, hn := bitio.Uvarint(enc)
	if hn == 0 || hn >= len(enc) {
		return nil, Corruptf("RAZE/RARE: bad length prefix")
	}
	if err := checkDecodedLen("RAZE/RARE", declen64, maxDecoded); err != nil {
		return nil, err
	}
	declen := int(declen64)
	k := int(enc[hn])
	if k > 64 {
		return nil, Corruptf("RAZE/RARE: split k=%d out of range", k)
	}
	body := enc[hn+1:]
	n := declen / 8
	tailLen := declen - n*8

	if k == 0 {
		if len(body) < declen {
			return nil, Corruptf("RAZE/RARE: truncated raw body")
		}
		return append(dst, body[:declen]...), nil
	}

	bp := GetBuf()
	defer PutBuf(bp)
	bm, consumed, err := decodeRepeatBitmapScratch(bp, body, (n+7)/8)
	if err != nil {
		return nil, err
	}
	body = body[consumed:]
	// Count kept words a bitmap byte at a time, masking the pad bits of the
	// final partial byte (hostile input may set them).
	nKept := 0
	nb := n / 8
	for _, c := range bm[:nb] {
		nKept += bits.OnesCount8(c)
	}
	if n&7 != 0 {
		nKept += bits.OnesCount8(bm[nb] & byte(0xff<<(8-n&7)))
	}
	keptBytes := (nKept*k + 7) / 8
	if len(body) < keptBytes {
		return nil, Corruptf("RAZE/RARE: truncated kept pieces")
	}
	kept := body[:keptBytes]
	body = body[keptBytes:]
	bw := uint(64 - k)
	botBytes := (n*int(bw) + 7) / 8
	if len(body) < botBytes {
		return nil, Corruptf("RAZE/RARE: truncated bottom pieces")
	}
	bot := body[:botBytes]
	body = body[botBytes:]

	base := len(dst)
	dst = Grow(dst, declen)
	out := dst[base:]
	// Both bit regions are exactly sized, so the reads cannot run short: no
	// per-read truncation handling.
	ow := wordio.Out64(out)
	adaptiveUnpack(ow.W, bm, kept, bot, k, nKept, repeat)
	ow.Done()
	if tailLen > 0 {
		if len(body) < tailLen {
			return nil, Corruptf("RAZE/RARE: truncated tail")
		}
		copy(out[n*8:], body[:tailLen])
	}
	return dst, nil
}

// adaptiveUnpack reassembles the words in three bulk passes over a
// zero-padded pooled copy of the kept and bottom regions (the 8 bytes of
// slack simd.Unpack64 reads past the last field): the (64-k)-bit bottoms
// unpack straight into ow, the nKept k-bit tops into pooled scratch, and
// adaptiveMerge ORs every word's top into place. The regions' exact
// sizing, and nKept matching the bitmap's set bits below len(ow), are the
// caller's responsibility.
func adaptiveUnpack(ow []uint64, bm, kept, bot []byte, k, nKept int, repeat bool) {
	sp := GetBuf()
	defer PutBuf(sp)
	pad := wordio.Resize(sp, len(kept)+len(bot)+8)
	copy(pad, kept)
	copy(pad[len(kept):], bot)
	clear(pad[len(kept)+len(bot):])
	bw := uint(64 - k)
	if bw > 0 {
		simd.Unpack64(ow, pad, uint64(len(kept))*8, bw, false)
	} else {
		clear(ow)
	}
	tops := wordio.Scratch64(1 + nKept)
	defer tops.Done()
	tops.W[0] = 0
	simd.Unpack64(tops.W[1:], pad, 0, uint(k), false)
	adaptiveMerge(ow, bm, tops.W, bw, repeat)
}

// adaptiveMerge ORs each word's top piece, shifted up by bw, into ow a
// bitmap byte at a time: the next kept top for a set bit, otherwise zero
// (RAZE, so an all-zero byte costs nothing) or the previous word's top
// (RARE, one OR per word for an all-zero byte). An all-one byte takes the
// next eight tops in either mode. tops[0] is a zero sentinel and tops[1:]
// the kept tops, so with j counting the set bits so far, tops[j] is the
// current RARE top and no word needs a branch. The pad bits of the final
// partial byte are masked off, so only words below len(ow) consume tops.
func adaptiveMerge(ow []uint64, bm []byte, tops []uint64, bw uint, repeat bool) {
	bw &= 63
	j := uint(0)
	for b := 0; b*8 < len(ow); b++ {
		o := ow[b*8 : min(b*8+8, len(ow))]
		c := uint(bm[b] & byte(0xff<<(8-len(o))))
		switch {
		case c == 0 && !repeat:
		case c == 0:
			top := tops[j] << bw
			for x := range o {
				o[x] |= top
			}
		case c == 0xff:
			t := tops[j+1 : j+9 : j+9]
			for x := range o {
				o[x] |= t[x] << bw
			}
			j += 8
		case !repeat:
			for x := range o {
				bit := c >> (7 - x) & 1
				j += bit
				o[x] |= tops[j] << bw & -uint64(bit)
			}
		default:
			for x := range o {
				j += c >> (7 - x) & 1
				o[x] |= tops[j] << bw
			}
		}
	}
}

// RAZE implements Repeated Adaptive Zero Elimination: RZE restricted to the
// adaptively chosen top k bits of each 64-bit word, with the low 64-k bits
// always stored verbatim.
type RAZE struct{}

// Name implements Transform.
func (RAZE) Name() string { return "RAZE" }

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract).
func (RAZE) ForwardInto(dst, src []byte) []byte { return adaptiveForwardInto(dst, src, false) }

// InverseInto implements Transform (see the package comment for the dst
// ownership contract).
func (RAZE) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	return adaptiveInverseInto(dst, enc, false, maxDecoded)
}

// RARE implements Repeated Adaptive Repetition Elimination: like RAZE but a
// top piece is eliminated when it equals the prior word's top piece rather
// than when it is zero. DPratio runs it after RAZE because zero elimination
// tends to leave values with identical most-significant bit patterns.
type RARE struct{}

// Name implements Transform.
func (RARE) Name() string { return "RARE" }

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract).
func (RARE) ForwardInto(dst, src []byte) []byte { return adaptiveForwardInto(dst, src, true) }

// InverseInto implements Transform (see the package comment for the dst
// ownership contract).
func (RARE) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	return adaptiveInverseInto(dst, enc, true, maxDecoded)
}
