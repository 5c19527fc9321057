// Package cascaded implements an nvCOMP-Cascaded-class compressor: a
// cascade of run-length encoding, delta encoding, and bit packing on 32-bit
// words (Wu & Lemire's fast integer compression scheme, which nvCOMP's
// Cascaded codec builds on). It excels on integer-like and repetitive data
// and — like the original in Figures 8-11 — does little for floating-point
// noise.
package cascaded

import (
	"errors"

	"fpcompress/internal/bitio"
	"fpcompress/internal/wordio"
)

// ErrCorrupt reports undecodable input.
var ErrCorrupt = errors.New("cascaded: corrupt input")

// packBlock is the bit-packing block size in values.
const packBlock = 256

// Cascaded is the compressor. The zero value is ready to use.
type Cascaded struct{}

// Name implements baselines.Compressor.
func (Cascaded) Name() string { return "Cascaded" }

// packU32 appends, per block of up to packBlock values, a width byte and
// the width-bit packed values.
func packU32(out []byte, vals []uint32) []byte {
	out = bitio.AppendUvarint(out, uint64(len(vals)))
	for s := 0; s < len(vals); s += packBlock {
		e := s + packBlock
		if e > len(vals) {
			e = len(vals)
		}
		width := uint(0)
		for _, v := range vals[s:e] {
			if w := uint(32 - wordio.Clz32(v)); w > width {
				width = w
			}
		}
		out = append(out, byte(width))
		w := bitio.NewWriter((e-s)*int(width)/8 + 8)
		for _, v := range vals[s:e] {
			w.WriteBits(uint64(v), width)
		}
		out = append(out, w.Bytes()...)
	}
	return out
}

// unpackU32 reads a packU32 stream, returning values and bytes consumed.
func unpackU32(enc []byte) ([]uint32, int, error) {
	n64, hn := bitio.Uvarint(enc)
	if hn == 0 || n64 > uint64(len(enc))*8+packBlock {
		return nil, 0, ErrCorrupt
	}
	n := int(n64)
	vals := make([]uint32, 0, n)
	pos := hn
	for s := 0; s < n; s += packBlock {
		e := s + packBlock
		if e > n {
			e = n
		}
		if pos >= len(enc) {
			return nil, 0, ErrCorrupt
		}
		width := uint(enc[pos])
		pos++
		if width > 32 {
			return nil, 0, ErrCorrupt
		}
		nb := ((e-s)*int(width) + 7) / 8
		if pos+nb > len(enc) {
			return nil, 0, ErrCorrupt
		}
		us, err := bitio.UnpackWidth64(enc[pos:pos+nb], e-s, width)
		if err != nil {
			return nil, 0, err
		}
		pos += nb
		for _, u := range us {
			vals = append(vals, uint32(u))
		}
	}
	return vals, pos, nil
}

// Compress implements baselines.Compressor.
func (Cascaded) Compress(src []byte) ([]byte, error) {
	n := len(src) / 4
	tail := src[n*4:]

	// Stage 1: RLE over words.
	var runVals, runLens []uint32
	for i := 0; i < n; {
		v := wordio.U32(src, i)
		j := i + 1
		for j < n && wordio.U32(src, j) == v {
			j++
		}
		runVals = append(runVals, v)
		runLens = append(runLens, uint32(j-i))
		i = j
	}
	// Stage 2: delta (magnitude-sign) over the run values.
	prev := uint32(0)
	for i, v := range runVals {
		runVals[i] = wordio.ZigZag32(v - prev)
		prev = v
	}
	// Stage 3: bit packing of both streams.
	out := bitio.AppendUvarint(nil, uint64(len(src)))
	out = packU32(out, runVals)
	out = packU32(out, runLens)
	return append(out, tail...), nil
}

// Decompress implements baselines.Compressor.
func (Cascaded) Decompress(enc []byte) ([]byte, error) {
	declen64, hn := bitio.Uvarint(enc)
	// RLE makes the achievable ratio unbounded; cap allocations instead.
	if hn == 0 || declen64 > 1<<28 {
		return nil, ErrCorrupt
	}
	declen := int(declen64)
	n := declen / 4
	runVals, used, err := unpackU32(enc[hn:])
	if err != nil {
		return nil, err
	}
	runLens, used2, err := unpackU32(enc[hn+used:])
	if err != nil {
		return nil, err
	}
	if len(runVals) != len(runLens) {
		return nil, ErrCorrupt
	}
	tail := enc[hn+used+used2:]
	tailLen := declen - n*4
	if len(tail) != tailLen {
		return nil, ErrCorrupt
	}
	// The runs must cover exactly the declared words before the output is
	// allocated, so a short input cannot make it allocate the cap.
	var words uint64
	for _, l := range runLens {
		words += uint64(l)
	}
	if words != uint64(n) {
		return nil, ErrCorrupt
	}
	dst := make([]byte, declen)
	idx := 0
	prev := uint32(0)
	for r := range runVals {
		prev += wordio.UnZigZag32(runVals[r])
		for k := uint32(0); k < runLens[r]; k++ {
			wordio.PutU32(dst, idx, prev)
			idx++
		}
	}
	copy(dst[n*4:], tail)
	return dst, nil
}
