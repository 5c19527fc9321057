// Package rans implements an order-0 byte-wise rANS (range asymmetric
// numeral system) entropy coder, standing in for the nvCOMP "ANS" baseline
// (Duda 2014). Symbol statistics are gathered per block, normalized to a
// 12-bit total, and coded with a 32-bit-state, byte-renormalizing rANS
// — the same family nvCOMP's GPU ANS codec implements.
package rans

import (
	"errors"

	"fpcompress/internal/bitio"
)

// ErrCorrupt reports undecodable input.
var ErrCorrupt = errors.New("rans: corrupt input")

const (
	probBits  = 12
	probScale = 1 << probBits
	ransL     = 1 << 23 // lower bound of the normalized state interval
)

// BlockSize is the granularity at which statistics adapt (1 MiB keeps the
// frequency-table overhead negligible while tracking data drift).
const BlockSize = 1 << 20

// ANS is the compressor. The zero value is ready to use.
type ANS struct{}

// Name implements baselines.Compressor.
func (ANS) Name() string { return "ANS" }

// normalizeFreqs scales raw counts to sum exactly probScale, keeping every
// present symbol at frequency >= 1.
func normalizeFreqs(counts *[256]int, total int) *[256]uint16 {
	var freqs [256]uint16
	if total == 0 {
		return &freqs
	}
	remaining := probScale
	// First pass: proportional share, minimum 1 for present symbols.
	maxSym, maxVal := 0, 0
	assigned := 0
	for s := 0; s < 256; s++ {
		if counts[s] == 0 {
			continue
		}
		f := counts[s] * probScale / total
		if f == 0 {
			f = 1
		}
		freqs[s] = uint16(f)
		assigned += f
		if counts[s] > maxVal {
			maxVal, maxSym = counts[s], s
		}
	}
	// Fix the rounding drift on the most frequent symbol.
	diff := remaining - assigned
	nf := int(freqs[maxSym]) + diff
	if nf < 1 {
		// The correction would zero the pivot: steal from other symbols.
		nf = 1
		need := 1 - (int(freqs[maxSym]) + diff) // > 0
		for s := 0; s < 256 && need > 0; s++ {
			for s != maxSym && freqs[s] > 1 && need > 0 {
				freqs[s]--
				need--
			}
		}
	}
	freqs[maxSym] = uint16(nf)
	return &freqs
}

// encodeBlock writes one block: varint length, frequency table (256
// varints), then the rANS byte stream (reversed so decoding is forward).
func encodeBlock(out []byte, src []byte) []byte {
	out = bitio.AppendUvarint(out, uint64(len(src)))
	var counts [256]int
	for _, c := range src {
		counts[c]++
	}
	freqs := normalizeFreqs(&counts, len(src))
	var cum [257]uint32
	for s := 0; s < 256; s++ {
		cum[s+1] = cum[s] + uint32(freqs[s])
	}
	for s := 0; s < 256; s++ {
		out = bitio.AppendUvarint(out, uint64(freqs[s]))
	}
	// rANS encodes in reverse symbol order.
	var stream []byte
	x := uint32(ransL)
	for i := len(src) - 1; i >= 0; i-- {
		s := src[i]
		f := uint32(freqs[s])
		// Renormalize: emit low bytes while x would overflow.
		max := ((ransL >> probBits) << 8) * f
		for x >= max {
			stream = append(stream, byte(x))
			x >>= 8
		}
		x = (x/f)<<probBits + x%f + cum[s]
	}
	var xb [4]byte
	xb[0] = byte(x)
	xb[1] = byte(x >> 8)
	xb[2] = byte(x >> 16)
	xb[3] = byte(x >> 24)
	out = append(out, xb[:]...)
	// stream was produced back-to-front; append reversed.
	for i := len(stream) - 1; i >= 0; i-- {
		out = append(out, stream[i])
	}
	return out
}

// decodeBlock reads one block, returning the decoded bytes and the number
// of input bytes consumed.
func decodeBlock(enc []byte) ([]byte, int, error) {
	n64, hn := bitio.Uvarint(enc)
	if hn == 0 || n64 > BlockSize {
		return nil, 0, ErrCorrupt
	}
	n := int(n64)
	pos := hn
	var freqs [256]uint32
	var cum [257]uint32
	for s := 0; s < 256; s++ {
		f, fn := bitio.Uvarint(enc[pos:])
		if fn == 0 || f > probScale {
			return nil, 0, ErrCorrupt
		}
		freqs[s] = uint32(f)
		pos += fn
	}
	for s := 0; s < 256; s++ {
		cum[s+1] = cum[s] + freqs[s]
	}
	// An empty block's table is all zeros; a table past probScale would
	// index past the slot table below.
	if cum[256] > probScale || (n > 0 && cum[256] != probScale) {
		return nil, 0, ErrCorrupt
	}
	// Slot-to-symbol lookup.
	var slots [probScale]byte
	for s := 0; s < 256; s++ {
		for k := cum[s]; k < cum[s+1]; k++ {
			slots[k] = byte(s)
		}
	}
	if pos+4 > len(enc) {
		return nil, 0, ErrCorrupt
	}
	x := uint32(enc[pos]) | uint32(enc[pos+1])<<8 | uint32(enc[pos+2])<<16 | uint32(enc[pos+3])<<24
	pos += 4
	dst := make([]byte, n)
	for i := 0; i < n; i++ {
		slot := x & (probScale - 1)
		s := slots[slot]
		f := freqs[s]
		x = f*(x>>probBits) + slot - cum[s]
		for x < ransL {
			if pos >= len(enc) {
				return nil, 0, ErrCorrupt
			}
			x = x<<8 | uint32(enc[pos])
			pos++
		}
		dst[i] = s
	}
	if x != ransL {
		return nil, 0, ErrCorrupt
	}
	return dst, pos, nil
}

// Compress implements baselines.Compressor.
func (ANS) Compress(src []byte) ([]byte, error) {
	out := bitio.AppendUvarint(nil, uint64(len(src)))
	for s := 0; s < len(src) || s == 0; s += BlockSize {
		e := s + BlockSize
		if e > len(src) {
			e = len(src)
		}
		out = encodeBlock(out, src[s:e])
		if len(src) == 0 {
			break
		}
	}
	return out, nil
}

// Decompress implements baselines.Compressor.
func (ANS) Decompress(enc []byte) ([]byte, error) {
	total64, hn := bitio.Uvarint(enc)
	// Every block carries a ~260-byte frequency table, bounding how much a
	// given encoded size can legitimately decode to.
	if hn == 0 || total64 > (uint64(len(enc))/256+2)*BlockSize {
		return nil, ErrCorrupt
	}
	total := int(total64)
	dst := make([]byte, 0, total)
	pos := hn
	for len(dst) < total || total == 0 {
		blk, used, err := decodeBlock(enc[pos:])
		if err != nil {
			return nil, err
		}
		dst = append(dst, blk...)
		pos += used
		if total == 0 {
			break
		}
	}
	if len(dst) != total {
		return nil, ErrCorrupt
	}
	return dst, nil
}
