package transforms

import (
	"fmt"
	"math/bits"
	"slices"

	"fpcompress/internal/bitio"
	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// rzeBitmapFloor is the size at which the recursive bitmap compression
// stops. A 16 kB chunk's 16384-bit (2048-byte) bitmap shrinks 2048 -> 256 ->
// 32 -> 4 bytes, i.e. the "reduced to 2048, then 256, and ultimately 32
// bits" sequence of paper §3.2.
const rzeBitmapFloor = 4

// RZE implements the Repeated Zero Elimination transformation (paper §3.2,
// Figure 5). It builds a bitmap with one bit per input byte (set = byte is
// non-zero), removes all zero bytes, and emits the surviving bytes plus the
// bitmap. Because the bitmap is a significant fixed overhead, it is itself
// compressed by repeatedly applying the same scheme with "repeats the
// previous byte" in place of "is zero": only non-repeating bytes of each
// bitmap level and the final tiny bitmap are stored.
//
// Encoded form: uvarint decoded length, recursively compressed bitmap,
// then the non-zero data bytes.
//
// The byte-granularity paths scan eight bytes at a time: the buffer's
// uint64 words (wordio.In64) plus a SWAR non-zero/changed-byte movemask
// classify each 8-byte group as all-skip, all-emit, or mixed, so the
// dominant all-zero and all-nonzero runs of post-BIT data move at word
// speed.
//
// Granularity exists for the ablation benchmarks: the paper chose byte
// granularity "to increase the chance of finding zero values" over, say,
// whole words; setting Granularity to 2 or 4 elimination units quantifies
// that choice. The production pipelines always use the byte default.
type RZE struct {
	// Granularity is the elimination unit in bytes (0 or 1 = bytes, the
	// paper's choice).
	Granularity int
}

func (z RZE) unit() int {
	if z.Granularity <= 1 {
		return 1
	}
	return z.Granularity
}

// Name implements Transform.
func (z RZE) Name() string {
	if z.unit() == 1 {
		return "RZE"
	}
	return fmt.Sprintf("RZE%d", z.unit()*8)
}

// appendNonRepeats appends the bytes of lvl that differ from their
// predecessor (the byte before lvl[0] is taken as zero), classifying
// 8-byte groups with the SWAR changed mask.
func appendNonRepeats(out, lvl []byte) []byte {
	prev := byte(0)
	lw := wordio.In64(lvl)
	for g, v := range lw.W {
		x := v ^ (v<<8 | uint64(prev))
		prev = byte(v >> 56)
		if x == 0 {
			continue
		}
		base := g * 8
		m := wordio.NonzeroMask8(x)
		if m == 0xff {
			out = append(out, lvl[base:base+8]...)
			continue
		}
		for j := 0; j < 8; j++ {
			if m&(0x80>>j) != 0 {
				out = append(out, lvl[base+j])
			}
		}
	}
	i := len(lw.W) * 8
	lw.Done()
	for ; i < len(lvl); i++ {
		if lvl[i] != prev {
			out = append(out, lvl[i])
		}
		prev = lvl[i]
	}
	return out
}

// appendRepeatBitmap appends the repeat-eliminated recursive bitmap
// encoding of b to out. The logical recursion enc(L) = enc(bitmap(L)) +
// nonrep(L) is run iteratively: the shrinking bitmap levels are built in
// one pooled scratch buffer (each level's start rounded up to 8 bytes so
// the SWAR passes can alias it as words), the deepest (<= floor) level is
// emitted verbatim, and each level's non-repeating bytes are re-derived
// while appending — so the encoder allocates nothing per level.
func appendRepeatBitmap(out, b []byte) []byte {
	if len(b) <= rzeBitmapFloor {
		return append(out, b...)
	}
	sp := GetBuf()
	defer PutBuf(sp)
	// The level chain totals ~len(b)/7 bytes plus alignment pads.
	scratch := slices.Grow((*sp)[:0], len(b)/7+128)
	// Level k of the chain (level 0 being b itself) has its bitmap — level
	// k+1 — at scratch[starts[k]:starts[k]+lens[k]]. Depth is log8-bounded,
	// ~9 levels for the 64 MiB MaxDecoded cap, so the tables live on the
	// stack.
	var startA, lenA [16]int
	starts, lens := startA[:0], lenA[:0]
	cur := b
	for len(cur) > rzeBitmapFloor {
		bmLen := (len(cur) + 7) / 8
		start := (len(scratch) + 7) &^ 7
		scratch = Grow(scratch, start-len(scratch)+bmLen)
		bm := scratch[start : start+bmLen]
		simd.ChangeBM(bm, cur)
		starts = append(starts, start)
		lens = append(lens, bmLen)
		cur = bm
	}
	*sp = scratch
	// Deepest level verbatim, then each level's non-repeating bytes
	// deepest-first (matching the recursion's emit order).
	out = append(out, cur...)
	for k := len(starts) - 1; k >= 0; k-- {
		lvl := b
		if k > 0 {
			lvl = scratch[starts[k-1] : starts[k-1]+lens[k-1]]
		}
		out = appendNonRepeats(out, lvl)
	}
	return out
}

// RepeatBitmapLen returns len(appendRepeatBitmap(nil, b)) without
// materializing the encoding: each level contributes exactly the popcount
// of its change bitmap (the bytes appendNonRepeats would emit), plus the
// deepest level verbatim. The auto-mode selector prices RZE stages by size
// alone, and skipping the byte gathering makes the length a fraction of
// the encode cost.
func RepeatBitmapLen(b []byte) int {
	if len(b) <= rzeBitmapFloor {
		return len(b)
	}
	sp := GetBuf()
	defer PutBuf(sp)
	scratch := slices.Grow((*sp)[:0], len(b)/7+128)
	total := 0
	cur := b
	for len(cur) > rzeBitmapFloor {
		bmLen := (len(cur) + 7) / 8
		start := (len(scratch) + 7) &^ 7
		scratch = Grow(scratch, start-len(scratch)+bmLen)
		bm := scratch[start : start+bmLen]
		simd.ChangeBM(bm, cur)
		total += popcountBytes(bm)
		cur = bm
	}
	*sp = scratch
	return total + len(cur)
}

// popcountBytes counts the set bits of b, a word at a time.
func popcountBytes(b []byte) int {
	n := 0
	w := wordio.In64(b)
	for _, v := range w.W {
		n += bits.OnesCount64(v)
	}
	i := len(w.W) * 8
	w.Done()
	for ; i < len(b); i++ {
		n += bits.OnesCount8(b[i])
	}
	return n
}

// expandRepeatLevel reconstructs one bitmap level: out[i] repeats the
// previous byte unless bm's bit i is set, in which case the next src byte
// (from offset consumed) is taken. It returns the updated consumed offset.
// Groups of eight are dispatched on the bm byte: 0x00 is a pure repeat
// run, 0xff a straight copy.
func expandRepeatLevel(out, bm, src []byte, consumed int) (int, error) {
	groups := len(out) / 8
	prev := byte(0)
	for g := 0; g < groups; g++ {
		m := bm[g]
		o := out[g*8 : g*8+8]
		switch {
		case m == 0:
			o[0], o[1], o[2], o[3] = prev, prev, prev, prev
			o[4], o[5], o[6], o[7] = prev, prev, prev, prev
		case m == 0xff:
			if consumed+8 > len(src) {
				return 0, Corruptf("RZE: truncated bitmap level")
			}
			copy(o, src[consumed:consumed+8])
			consumed += 8
			prev = o[7]
		default:
			if consumed+bits.OnesCount8(m) > len(src) {
				return 0, Corruptf("RZE: truncated bitmap level")
			}
			for j := 0; j < 8; j++ {
				if m&(0x80>>j) != 0 {
					prev = src[consumed]
					consumed++
				}
				o[j] = prev
			}
		}
	}
	for i := groups * 8; i < len(out); i++ {
		if bm[i>>3]&(0x80>>(i&7)) != 0 {
			if consumed >= len(src) {
				return 0, Corruptf("RZE: truncated bitmap level")
			}
			prev = src[consumed]
			consumed++
		}
		out[i] = prev
	}
	return consumed, nil
}

// decodeRepeatBitmapScratch reconstructs the length-l level-0 bitmap from
// src, expanding the level chain inside the pooled buffer *bp (no per-level
// — or any — allocation; the level tables live on the stack). It returns
// the bitmap (which may alias src when l is at or below the recursion
// floor, and otherwise aliases *bp) and the number of src bytes consumed.
func decodeRepeatBitmapScratch(bp *[]byte, src []byte, l int) ([]byte, int, error) {
	if l <= rzeBitmapFloor {
		if len(src) < l {
			return nil, 0, Corruptf("RZE: truncated bitmap floor")
		}
		return src[:l:l], l, nil
	}
	// lens[k] is the size of level k; the chain stops at the first level at
	// or below the floor (log8-bounded depth, so the tables fit the stack).
	var lenA, offA [16]int
	lens := append(lenA[:0], l)
	for lens[len(lens)-1] > rzeBitmapFloor {
		lens = append(lens, (lens[len(lens)-1]+7)/8)
	}
	d := len(lens) - 1
	total := 0
	for _, n := range lens {
		total += n
	}
	scratch := wordio.Resize(bp, total)
	// Level k occupies scratch[off[k] : off[k]+lens[k]], deepest first.
	var off []int
	if len(lens) <= len(offA) {
		off = offA[:len(lens)]
	} else {
		off = make([]int, len(lens))
	}
	pos := 0
	for k := d; k >= 0; k-- {
		off[k] = pos
		pos += lens[k]
	}
	if len(src) < lens[d] {
		return nil, 0, Corruptf("RZE: truncated bitmap floor")
	}
	copy(scratch[off[d]:], src[:lens[d]])
	consumed := lens[d]
	for k := d - 1; k >= 0; k-- {
		bm := scratch[off[k+1] : off[k+1]+lens[k+1]]
		out := scratch[off[k] : off[k]+lens[k]]
		var err error
		consumed, err = expandRepeatLevel(out, bm, src, consumed)
		if err != nil {
			return nil, 0, err
		}
	}
	return scratch[off[0] : off[0]+l], consumed, nil
}

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract). The zero bitmap lives in pooled scratch and the
// surviving bytes are appended in a second pass over src, driven by the
// bitmap a byte (8 source bytes) at a time: all-zero groups are skipped
// and all-nonzero ones bulk-copied. Nothing is allocated beyond dst
// growth.
func (z RZE) ForwardInto(dst, src []byte) []byte {
	if z.unit() > 1 {
		return z.forwardUnits(dst, src)
	}
	bp := GetBuf()
	defer PutBuf(bp)
	bm := wordio.Resize(bp, (len(src)+7)/8)
	nonzero := simd.NonzeroBM(bm, src)
	dst = slices.Grow(dst, bitio.UvarintLen(uint64(len(src)))+len(bm)+len(bm)/4+nonzero+16)
	dst = bitio.AppendUvarint(dst, uint64(len(src)))
	dst = appendRepeatBitmap(dst, bm)
	groups := len(src) / 8
	for g, m := range bm[:groups] {
		base := g * 8
		switch m {
		case 0:
		case 0xff:
			dst = append(dst, src[base:base+8]...)
		default:
			for j := 0; j < 8; j++ {
				if m&(0x80>>j) != 0 {
					dst = append(dst, src[base+j])
				}
			}
		}
	}
	for _, c := range src[groups*8:] {
		if c != 0 {
			dst = append(dst, c)
		}
	}
	return dst
}

// forwardUnits is the Granularity > 1 ablation encoder: the bitmap marks
// whole non-zero units, and every byte of a marked unit survives.
func (z RZE) forwardUnits(dst, src []byte) []byte {
	g := z.unit()
	units := (len(src) + g - 1) / g
	bp := GetBuf()
	defer PutBuf(bp)
	bm := wordio.Resize(bp, (units+7)/8)
	clear(bm)
	nonzero := 0
	for u := 0; u < units; u++ {
		lo, hi := u*g, min((u+1)*g, len(src))
		for _, c := range src[lo:hi] {
			if c != 0 {
				bm[u>>3] |= 0x80 >> (u & 7)
				nonzero += hi - lo
				break
			}
		}
	}
	dst = slices.Grow(dst, bitio.UvarintLen(uint64(len(src)))+len(bm)+len(bm)/4+nonzero+16)
	dst = bitio.AppendUvarint(dst, uint64(len(src)))
	dst = appendRepeatBitmap(dst, bm)
	for u := 0; u < units; u++ {
		if bm[u>>3]&(0x80>>(u&7)) != 0 {
			dst = append(dst, src[u*g:min((u+1)*g, len(src))]...)
		}
	}
	return dst
}

// rzeScatterBytes re-inserts the surviving data bytes at the positions
// bm marks non-zero (out must be pre-zeroed). 8-byte groups dispatch on
// the bm byte: 0x00 skips, 0xff bulk-copies.
func rzeScatterBytes(out, bm, data []byte) error {
	pos := 0
	groups := len(out) / 8
	for g := 0; g < groups; g++ {
		m := bm[g]
		if m == 0 {
			continue
		}
		o := out[g*8 : g*8+8]
		if m == 0xff {
			if pos+8 > len(data) {
				return Corruptf("RZE: truncated data bytes")
			}
			copy(o, data[pos:pos+8])
			pos += 8
			continue
		}
		if pos+bits.OnesCount8(m) > len(data) {
			return Corruptf("RZE: truncated data bytes")
		}
		for j := 0; j < 8; j++ {
			if m&(0x80>>j) != 0 {
				o[j] = data[pos]
				pos++
			}
		}
	}
	for i := groups * 8; i < len(out); i++ {
		if bm[i>>3]&(0x80>>(i&7)) != 0 {
			if pos >= len(data) {
				return Corruptf("RZE: truncated data bytes")
			}
			out[i] = data[pos]
			pos++
		}
	}
	return nil
}

// InverseInto implements Transform (see the package comment for the dst
// ownership contract).
func (z RZE) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	declen64, n := bitio.Uvarint(enc)
	if n == 0 {
		return nil, Corruptf("RZE: bad length prefix")
	}
	if err := checkDecodedLen("RZE", declen64, maxDecoded); err != nil {
		return nil, err
	}
	declen := int(declen64)
	g := z.unit()
	units := (declen + g - 1) / g
	bp := GetBuf()
	defer PutBuf(bp)
	bm, consumed, err := decodeRepeatBitmapScratch(bp, enc[n:], (units+7)/8)
	if err != nil {
		return nil, err
	}
	data := enc[n+consumed:]
	base := len(dst)
	dst = Grow(dst, declen)
	out := dst[base:]
	// Eliminated units decode to zero bytes; the grown region is not
	// guaranteed fresh, so zero it first.
	clear(out)
	if g == 1 {
		if err := rzeScatterBytes(out, bm, data); err != nil {
			return nil, err
		}
		return dst, nil
	}
	pos := 0
	for u := 0; u < units; u++ {
		if bm[u>>3]&(0x80>>(u&7)) == 0 {
			continue
		}
		lo, hi := u*g, (u+1)*g
		if hi > declen {
			hi = declen
		}
		if pos+hi-lo > len(data) {
			return nil, Corruptf("RZE: truncated data bytes")
		}
		copy(out[lo:hi], data[pos:pos+hi-lo])
		pos += hi - lo
	}
	return dst, nil
}
