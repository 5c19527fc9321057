// Package zstdx implements a Zstandard-class compressor: an LZ77 stage with
// a large (1 MiB) window and level-scaled match search, whose literal,
// match-length, and distance streams are separated and entropy-coded with
// the repository's rANS coder — the same LZ + entropy-split architecture as
// Zstandard, built from this repository's own components rather than being
// a bit-compatible port. "fastest" and "best" harness modes map to low and
// high levels, matching how the paper evaluates CPU-Zstd at both ends.
package zstdx

import (
	"errors"
	"fmt"
	"math"

	"fpcompress/internal/baselines/rans"
	"fpcompress/internal/bitio"
)

// ErrCorrupt reports undecodable input.
var ErrCorrupt = errors.New("zstdx: corrupt input")

const (
	minMatch  = 4
	window    = 1 << 20
	hashBits  = 17
	tableSize = 1 << hashBits
)

// Zstd is the compressor. Level 1..19 scales match-search effort.
type Zstd struct {
	// Level is the effort level (0 = 3).
	Level int
}

// Name implements baselines.Compressor.
func (z *Zstd) Name() string { return fmt.Sprintf("Zstd-%d", z.level()) }

func (z *Zstd) level() int {
	if z.Level < 1 || z.Level > 19 {
		return 3
	}
	return z.Level
}

func hash4(src []byte, i int) uint32 {
	v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16 | uint32(src[i+3])<<24
	return (v * 2654435761) >> (32 - hashBits)
}

// parse runs the LZ stage, returning the three token streams: literals,
// a sequence stream of varint(litLen) + varint(matchLen-minMatch or 0 for
// the final bare-literal run) and varint distances.
func (z *Zstd) parse(src []byte) (lits, seq []byte) {
	var table [tableSize]int32
	for i := range table {
		table[i] = -1
	}
	chain := make([]int32, len(src))
	probes := z.level() * 2

	litStart := 0
	i := 0
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
			seq = bitio.AppendUvarint(seq, uint64(i-litStart))
			seq = bitio.AppendUvarint(seq, uint64(bestLen-minMatch+1))
			seq = bitio.AppendUvarint(seq, uint64(bestDist))
			lits = append(lits, src[litStart:i]...)
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
	seq = bitio.AppendUvarint(seq, uint64(len(src)-litStart))
	seq = bitio.AppendUvarint(seq, 0) // end marker
	lits = append(lits, src[litStart:]...)
	return lits, seq
}

func matchLen(src []byte, a, b int) int {
	n := 0
	for b+n < len(src) && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// Compress implements baselines.Compressor.
func (z *Zstd) Compress(src []byte) ([]byte, error) {
	lits, seq := z.parse(src)
	packedLits, err := (rans.ANS{}).Compress(lits)
	if err != nil {
		return nil, err
	}
	packedSeq, err := (rans.ANS{}).Compress(seq)
	if err != nil {
		return nil, err
	}
	out := bitio.AppendUvarint(nil, uint64(len(src)))
	out = bitio.AppendUvarint(out, uint64(len(packedLits)))
	out = append(out, packedLits...)
	return append(out, packedSeq...), nil
}

// Decompress implements baselines.Compressor.
func (z *Zstd) Decompress(enc []byte) ([]byte, error) {
	declen64, hn := bitio.Uvarint(enc)
	if hn == 0 || declen64 > math.MaxInt32 {
		return nil, ErrCorrupt
	}
	pos := hn
	litLen64, n := bitio.Uvarint(enc[pos:])
	if n == 0 || litLen64 > uint64(len(enc)-pos-n) {
		return nil, ErrCorrupt
	}
	pos += n
	lits, err := (rans.ANS{}).Decompress(enc[pos : pos+int(litLen64)])
	if err != nil {
		return nil, err
	}
	pos += int(litLen64)
	seq, err := (rans.ANS{}).Decompress(enc[pos:])
	if err != nil {
		return nil, err
	}

	declen := int(declen64)
	// The declared length sizes the output only as far as the input can
	// back it; long matches grow it, so a short hostile input cannot make
	// the decoder allocate the cap.
	dst := make([]byte, 0, min(declen, 4*len(enc)))
	litPos, seqPos := 0, 0
	for {
		ll64, n := bitio.Uvarint(seq[seqPos:])
		if n == 0 {
			return nil, ErrCorrupt
		}
		seqPos += n
		// Bounded as uint64 first: a huge length would wrap negative as int.
		if ll64 > uint64(len(lits)-litPos) || ll64 > uint64(declen-len(dst)) {
			return nil, ErrCorrupt
		}
		ll := int(ll64)
		dst = append(dst, lits[litPos:litPos+ll]...)
		litPos += ll
		ml64, n := bitio.Uvarint(seq[seqPos:])
		if n == 0 {
			return nil, ErrCorrupt
		}
		seqPos += n
		if ml64 == 0 {
			break // end marker
		}
		d64, n := bitio.Uvarint(seq[seqPos:])
		if n == 0 {
			return nil, ErrCorrupt
		}
		seqPos += n
		rem := declen - len(dst)
		if d64 == 0 || d64 > uint64(len(dst)) || rem < minMatch-1 || ml64 > uint64(rem-minMatch+1) {
			return nil, ErrCorrupt
		}
		mLen := int(ml64) - 1 + minMatch
		dist := int(d64)
		for k := 0; k < mLen; k++ {
			dst = append(dst, dst[len(dst)-dist])
		}
	}
	if len(dst) != declen {
		return nil, ErrCorrupt
	}
	return dst, nil
}
