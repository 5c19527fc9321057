package transforms

import (
	"encoding/binary"
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

// computeLead fills lead with each word's eliminable-leading-bit
// count — leading zeros for RAZE, leading bits shared with the previous
// word (the first compared against zero) for RARE, selected by common —
// accumulating the split-model histogram in the same pass so the encoder
// never rescans lead just to bin it (bestSplitHist consumes hist
// directly).
func computeLead(lead []int, hist *[65]int, sw []uint64, common bool) {
	lead = lead[:len(sw)]
	if common {
		prev := uint64(0)
		for i, v := range sw {
			l := bits.LeadingZeros64(v ^ prev)
			lead[i] = l
			hist[l]++
			prev = v
		}
		return
	}
	for i, v := range sw {
		l := bits.LeadingZeros64(v)
		lead[i] = l
		hist[l]++
	}
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
// common) appending to dst; all scratch (the lead counts and the
// elimination bitmap) is pooled, and the kept/bottom pieces are bit-packed
// directly into dst.
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
	lp := intPool.Get().(*[]int)
	defer intPool.Put(lp)
	lead := wordio.Resize(lp, n)
	var hist [65]int
	computeLead(lead, &hist, sw, common)
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
	scratch := wordio.Scratch64(n)
	defer scratch.Done()
	bw := uint(64 - k)
	nKept := 0
	for i, v := range sw {
		if lead[i] < k { // top piece must be emitted
			bm[i>>3] |= 0x80 >> (i & 7)
			scratch.W[nKept] = v >> bw
			nKept++
		}
	}
	dst = appendRepeatBitmap(dst, bm)
	// Kept top pieces then bottom pieces, each padded to a byte boundary —
	// the same layout PackWidth64 produces, without the intermediate
	// []uint64 slices.
	dst = adaptivePackFast(dst, sw, scratch.W, k, nKept)
	return append(dst, tail...)
}

// adaptivePackFast emits the kept-then-bottom bit layout with a
// register-resident accumulator flushed 32 bits at a time into pre-grown
// dst (see mplg.go for the nacc < 32 invariant); fields wider than 32 bits
// are written as two sub-32-bit halves.
//
// Both regions run through a dense word slice — kept top pieces already
// shifted down to their k-bit fields by the caller's bitmap pass (scratch,
// len(sw) capacity, first nKept entries valid), bottoms masked to 64-k
// bits in place — so the accumulator loop can run on the simd.Pack64
// kernel, which (like the MPLG loop it was built for) ORs whole source
// words and so requires every value to fit its field.
func adaptivePackFast(dst []byte, sw, scratch []uint64, k, nKept int) []byte {
	kw := uint(k)
	bw := uint(64 - k)
	start := len(dst)
	dst = Grow(dst, (nKept*k+7)/8+(len(sw)*int(bw)+7)/8+8)
	buf := dst
	bp := start
	bp = packDense(buf, bp, scratch[:nKept], kw)
	if bw > 0 {
		mask := uint64(1)<<bw - 1
		for i, v := range sw {
			scratch[i] = v & mask
		}
		bp = packDense(buf, bp, scratch, bw)
	}
	return dst[:bp]
}

// packDense appends len(vals) width-bit fields (every value already fits
// its field) to buf at bit-aligned byte position bp and byte-aligns the
// stream, returning the new position. The simd accumulator kernel runs
// when dispatched; the scalar loop is the reference.
func packDense(buf []byte, bp int, vals []uint64, width uint) int {
	var acc uint64
	var nacc uint
	if nbp, a, na, ok := simd.Pack64(buf, bp, acc, nacc, vals, width, false); ok {
		return BitFinish(buf, nbp, a, na)
	}
	if width <= 32 {
		for _, v := range vals {
			acc = acc<<width | v
			nacc += width
			if nacc >= 32 {
				nacc -= 32
				binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
				bp += 4
				acc &= 1<<nacc - 1
			}
		}
	} else {
		hi := width - 32
		for _, v := range vals {
			acc = acc<<hi | v>>32
			nacc += hi
			if nacc >= 32 {
				nacc -= 32
				binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
				bp += 4
				acc &= 1<<nacc - 1
			}
			// Appending 32 bits always reaches the flush threshold, and
			// flushing subtracts the same 32, so nacc is unchanged.
			acc = acc<<32 | v&0xffffffff
			binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
			bp += 4
			acc &= 1<<nacc - 1
		}
	}
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
	adaptiveUnpack(ow.W, bm, kept, bot, k, repeat)
	ow.Done()
	if tailLen > 0 {
		if len(body) < tailLen {
			return nil, Corruptf("RAZE/RARE: truncated tail")
		}
		copy(out[n*8:], body[:tailLen])
	}
	return dst, nil
}

// adaptiveUnpack reassembles the words through a 64-bit load window
// over a zero-padded pooled copy of the kept and bottom regions (two bit
// cursors, every read one load plus shifts). The regions' exact sizing is
// the caller's responsibility.
func adaptiveUnpack(ow []uint64, bm, kept, bot []byte, k int, repeat bool) {
	sp := GetBuf()
	defer PutBuf(sp)
	pad := wordio.Resize(sp, len(kept)+len(bot)+8)
	copy(pad, kept)
	copy(pad[len(kept):], bot)
	clear(pad[len(kept)+len(bot):])
	kw := uint(k)
	bw := uint(64 - k)
	kpos := uint(0)
	bpos := uint(len(kept)) * 8
	prevTop := uint64(0)
	for i := range ow {
		var top uint64
		if bm[i>>3]&(0x80>>(i&7)) != 0 {
			top = LoadBits(pad, kpos, kw)
			kpos += kw
		} else if repeat {
			top = prevTop
		}
		var b uint64
		if bw > 0 {
			b = LoadBits(pad, bpos, bw)
			bpos += bw
		}
		ow[i] = top<<bw | b
		prevTop = top
	}
}

// RAZE implements Repeated Adaptive Zero Elimination: RZE restricted to the
// adaptively chosen top k bits of each 64-bit word, with the low 64-k bits
// always stored verbatim.
type RAZE struct{}

// Name implements Transform.
func (RAZE) Name() string { return "RAZE" }

// Forward implements Transform.
func (RAZE) Forward(src []byte) []byte { return adaptiveForwardInto(nil, src, false) }

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract).
func (RAZE) ForwardInto(dst, src []byte) []byte { return adaptiveForwardInto(dst, src, false) }

// Inverse implements Transform.
func (RAZE) Inverse(enc []byte) ([]byte, error) {
	return adaptiveInverseInto(nil, enc, false, NoLimit)
}

// InverseLimit implements Transform.
func (RAZE) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return adaptiveInverseInto(nil, enc, false, maxDecoded)
}

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

// Forward implements Transform.
func (RARE) Forward(src []byte) []byte { return adaptiveForwardInto(nil, src, true) }

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract).
func (RARE) ForwardInto(dst, src []byte) []byte { return adaptiveForwardInto(dst, src, true) }

// Inverse implements Transform.
func (RARE) Inverse(enc []byte) ([]byte, error) {
	return adaptiveInverseInto(nil, enc, true, NoLimit)
}

// InverseLimit implements Transform.
func (RARE) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return adaptiveInverseInto(nil, enc, true, maxDecoded)
}

// InverseInto implements Transform (see the package comment for the dst
// ownership contract).
func (RARE) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	return adaptiveInverseInto(dst, enc, true, maxDecoded)
}
