// Package lzb implements a fast byte-level LZ77 compressor of the LZ4 /
// Snappy family, used as the stand-in for nvCOMP's LZ4 and Snappy
// baselines. Like those codecs it uses a hash table over 4-byte sequences,
// greedy matching with a bounded probe chain, a 64 KiB window, and a
// token format of literal runs and (length, distance) copies; it trades
// ratio for speed exactly as its family does on floating-point data
// (ratios barely above 1 — see Figures 8-11 of the paper).
package lzb

import (
	"errors"
	"fmt"

	"fpcompress/internal/bitio"
)

// ErrCorrupt reports undecodable input.
var ErrCorrupt = errors.New("lzb: corrupt input")

const (
	minMatch  = 4
	window    = 1 << 16
	hashBits  = 15
	tableSize = 1 << hashBits
)

// LZ is the compressor. Probes controls match-search effort: 1 behaves like
// LZ4/Snappy fast modes, larger values like the HC modes.
type LZ struct {
	// Probes per position (0 = 1).
	Probes int
	// Label overrides the Name (so the same engine can appear as "LZ4" and
	// "Snappy" in Table 1 harness output).
	Label string
}

// Name implements baselines.Compressor.
func (l *LZ) Name() string {
	if l.Label != "" {
		return l.Label
	}
	return fmt.Sprintf("LZB-%d", l.probes())
}

func (l *LZ) probes() int {
	if l.Probes <= 0 {
		return 1
	}
	return l.Probes
}

func hash4(src []byte, i int) uint32 {
	v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16 | uint32(src[i+3])<<24
	return (v * 2654435761) >> (32 - hashBits)
}

// Compress implements baselines.Compressor. Format: uvarint original
// length, then tokens. Token = uvarint litLen, literals, and (unless the
// stream ends) uvarint matchLen-minMatch and 2-byte distance.
func (l *LZ) Compress(src []byte) ([]byte, error) {
	out := bitio.AppendUvarint(nil, uint64(len(src)))
	var table [tableSize]int32
	for i := range table {
		table[i] = -1
	}
	chain := make([]int32, len(src))
	probes := l.probes()

	litStart := 0
	i := 0
	emit := func(litEnd, mLen, dist int) {
		out = bitio.AppendUvarint(out, uint64(litEnd-litStart))
		out = append(out, src[litStart:litEnd]...)
		if mLen > 0 {
			out = bitio.AppendUvarint(out, uint64(mLen-minMatch))
			out = append(out, byte(dist), byte(dist>>8))
		}
	}
	for i+minMatch <= len(src) {
		h := hash4(src, i)
		cand := table[h]
		bestLen, bestDist := 0, 0
		p := 0
		for cand >= 0 && p < probes && int(cand)+window > i {
			n := matchLen(src, int(cand), i)
			if n > bestLen {
				bestLen, bestDist = n, i-int(cand)
			}
			cand = chain[cand]
			p++
		}
		chain[i] = table[h]
		table[h] = int32(i)
		if bestLen >= minMatch {
			emit(i, bestLen, bestDist)
			end := i + bestLen
			i++
			for ; i < end && i+minMatch <= len(src); i++ {
				h := hash4(src, i)
				chain[i] = table[h]
				table[h] = int32(i)
			}
			i = end
			litStart = i
		} else {
			i++
		}
	}
	emit(len(src), 0, 0)
	return out, nil
}

func matchLen(src []byte, a, b int) int {
	n := 0
	for b+n < len(src) && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// Decompress implements baselines.Compressor.
func (l *LZ) Decompress(enc []byte) ([]byte, error) {
	declen64, hn := bitio.Uvarint(enc)
	if hn == 0 || declen64 > uint64(len(enc))*(window+16)+64 {
		return nil, ErrCorrupt
	}
	declen := int(declen64)
	dst := make([]byte, 0, declen)
	pos := hn
	for {
		litLen64, n := bitio.Uvarint(enc[pos:])
		if n == 0 {
			return nil, ErrCorrupt
		}
		pos += n
		// Bounded as uint64 first: a huge length would wrap negative as int.
		if litLen64 > uint64(len(enc)-pos) || litLen64 > uint64(declen-len(dst)) {
			return nil, ErrCorrupt
		}
		litLen := int(litLen64)
		dst = append(dst, enc[pos:pos+litLen]...)
		pos += litLen
		if len(dst) == declen && pos == len(enc) {
			return dst, nil
		}
		mLen64, n := bitio.Uvarint(enc[pos:])
		if n == 0 || pos+n+2 > len(enc) {
			return nil, ErrCorrupt
		}
		pos += n
		dist := int(enc[pos]) | int(enc[pos+1])<<8
		pos += 2
		rem := declen - len(dst)
		if dist <= 0 || dist > len(dst) || rem < minMatch || mLen64 > uint64(rem-minMatch) {
			return nil, ErrCorrupt
		}
		mLen := int(mLen64) + minMatch
		for k := 0; k < mLen; k++ {
			dst = append(dst, dst[len(dst)-dist])
		}
	}
}
