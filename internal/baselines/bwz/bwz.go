// Package bwz implements a Bzip2-class block compressor: Burrows-Wheeler
// transform (via an O(n log n) prefix-doubling suffix array), move-to-front
// coding, run-length encoding of the resulting zero-heavy stream, and
// canonical Huffman coding — the same stage order as bzip2 itself (with a
// single Huffman table where bzip2 switches between several). Like bzip2,
// the level parameter sets the block size (level x 100 kB) and the
// compressor trades a lot of throughput for ratio on most inputs.
package bwz

import (
	"errors"
	"fmt"

	"fpcompress/internal/bitio"
	"fpcompress/internal/huffman"
)

// ErrCorrupt reports undecodable input.
var ErrCorrupt = errors.New("bwz: corrupt input")

// BWZ is the compressor. Level 1..9 selects the block size like bzip2.
type BWZ struct {
	// Level is the bzip2-style block-size level (0 = 6).
	Level int
}

// Name implements baselines.Compressor.
func (b *BWZ) Name() string { return fmt.Sprintf("BWZ-%d", b.level()) }

func (b *BWZ) level() int {
	if b.Level < 1 || b.Level > 9 {
		return 6
	}
	return b.Level
}

func (b *BWZ) blockSize() int { return b.level() * 100000 }

// suffixArray builds the suffix array of data with an implicit smallest
// sentinel at the end, using prefix doubling with counting sorts. The
// returned array has len(data)+1 entries; index 0 is the sentinel suffix.
func suffixArray(data []byte) []int {
	n := len(data) + 1
	sa := make([]int, n)
	rank := make([]int, n)
	tmp := make([]int, n)
	cnt := make([]int, 258)

	// Initial ranking by symbol (sentinel = 0, byte b = b+1).
	sym := func(i int) int {
		if i == len(data) {
			return 0
		}
		return int(data[i]) + 1
	}
	for i := 0; i < n; i++ {
		cnt[sym(i)+1]++
	}
	for c := 1; c < 258; c++ {
		cnt[c] += cnt[c-1]
	}
	for i := 0; i < n; i++ {
		sa[cnt[sym(i)]] = i
		cnt[sym(i)]++
	}
	rank[sa[0]] = 0
	for i := 1; i < n; i++ {
		rank[sa[i]] = rank[sa[i-1]]
		if sym(sa[i]) != sym(sa[i-1]) {
			rank[sa[i]]++
		}
	}

	buf := make([]int, n)
	for h := 1; h < n; h <<= 1 {
		if rank[sa[n-1]] == n-1 {
			break // all ranks distinct
		}
		// Sort by (rank[i], rank[i+h]) with two counting passes.
		// Pass 1: by second key — positions i >= n-h have empty second key
		// and sort first.
		idx := 0
		for i := n - h; i < n; i++ {
			buf[idx] = i
			idx++
		}
		for _, s := range sa {
			if s >= h {
				buf[idx] = s - h
				idx++
			}
		}
		// Pass 2: stable counting sort by first key.
		count := make([]int, n+1)
		for i := 0; i < n; i++ {
			count[rank[i]+1]++
		}
		for c := 1; c <= n; c++ {
			count[c] += count[c-1]
		}
		for _, s := range buf {
			sa[count[rank[s]]] = s
			count[rank[s]]++
		}
		// Re-rank.
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			tmp[sa[i]] = tmp[sa[i-1]]
			cur, prev := sa[i], sa[i-1]
			same := rank[cur] == rank[prev]
			if same {
				cr, pr := -1, -1
				if cur+h < n {
					cr = rank[cur+h]
				}
				if prev+h < n {
					pr = rank[prev+h]
				}
				same = cr == pr
			}
			if !same {
				tmp[sa[i]]++
			}
		}
		rank, tmp = tmp, rank
	}
	return sa
}

// bwtForward returns the BWT of data (with implicit sentinel removed) and
// the row index where the sentinel occurred.
func bwtForward(data []byte) ([]byte, int) {
	sa := suffixArray(data)
	out := make([]byte, 0, len(data))
	sentinelRow := 0
	for i, s := range sa {
		if s == 0 {
			sentinelRow = i
			continue // this row's last column is the sentinel itself
		}
		out = append(out, data[s-1])
	}
	return out, sentinelRow
}

// bwtInverse reconstructs data from its BWT and sentinel row.
func bwtInverse(bwt []byte, sentinelRow int) ([]byte, error) {
	n := len(bwt) + 1 // rows including the sentinel row
	if sentinelRow < 0 || sentinelRow >= n {
		return nil, ErrCorrupt
	}
	// L column over the 257-symbol alphabet (sentinel = 0, smallest). Row
	// sentinelRow's L-entry is the sentinel itself.
	symAt := func(row int) int {
		if row == sentinelRow {
			return 0
		}
		j := row
		if row > sentinelRow {
			j--
		}
		return int(bwt[j]) + 1
	}
	// LF mapping: lf[row] = C[L[row]] + rank of this occurrence of L[row].
	cnt := make([]int, 258)
	for row := 0; row < n; row++ {
		cnt[symAt(row)+1]++
	}
	for c := 1; c < 258; c++ {
		cnt[c] += cnt[c-1]
	}
	lf := make([]int, n)
	for row := 0; row < n; row++ {
		s := symAt(row)
		lf[row] = cnt[s]
		cnt[s]++
	}
	// Row 0 is the rotation beginning with the sentinel; its L symbol is the
	// last character of the data. Walking LF emits the data backwards.
	out := make([]byte, len(bwt))
	row := 0
	for k := len(bwt) - 1; k >= 0; k-- {
		s := symAt(row)
		if s == 0 {
			return nil, ErrCorrupt // premature sentinel: corrupt row index
		}
		out[k] = byte(s - 1)
		row = lf[row]
	}
	return out, nil
}

// mtfForward applies move-to-front coding.
func mtfForward(data []byte) []byte {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, c := range data {
		j := 0
		for alphabet[j] != c {
			j++
		}
		out[i] = byte(j)
		copy(alphabet[1:j+1], alphabet[:j])
		alphabet[0] = c
	}
	return out
}

// mtfInverse inverts mtfForward.
func mtfInverse(data []byte) []byte {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, j := range data {
		c := alphabet[j]
		out[i] = c
		copy(alphabet[1:int(j)+1], alphabet[:j])
		alphabet[0] = c
	}
	return out
}

// rleForward run-length-encodes: runs of 4+ equal bytes become the 4 bytes
// followed by a varint extra count (bzip2's pre-pass scheme).
func rleForward(data []byte) []byte {
	out := make([]byte, 0, len(data))
	i := 0
	for i < len(data) {
		c := data[i]
		j := i
		for j < len(data) && data[j] == c && j-i < 4 {
			out = append(out, c)
			j++
		}
		if j-i == 4 {
			extra := 0
			for j < len(data) && data[j] == c {
				extra++
				j++
			}
			out = bitio.AppendUvarint(out, uint64(extra))
		}
		i = j
	}
	return out
}

// rleInverse inverts rleForward.
func rleInverse(data []byte) ([]byte, error) {
	out := make([]byte, 0, len(data)*2)
	i := 0
	for i < len(data) {
		c := data[i]
		run := 1
		out = append(out, c)
		i++
		for i < len(data) && data[i] == c && run < 4 {
			out = append(out, c)
			run++
			i++
		}
		if run == 4 {
			extra64, n := bitio.Uvarint(data[i:])
			if n == 0 || extra64 > 1<<30 {
				return nil, ErrCorrupt
			}
			i += n
			for k := uint64(0); k < extra64; k++ {
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// Compress implements baselines.Compressor.
func (b *BWZ) Compress(src []byte) ([]byte, error) {
	bs := b.blockSize()
	out := bitio.AppendUvarint(nil, uint64(len(src)))
	for s := 0; s < len(src) || s == 0; s += bs {
		e := s + bs
		if e > len(src) {
			e = len(src)
		}
		block := src[s:e]
		bwt, row := bwtForward(block)
		stream := rleForward(mtfForward(bwt))
		packed := huffman.Encode(stream)
		out = bitio.AppendUvarint(out, uint64(len(block)))
		out = bitio.AppendUvarint(out, uint64(row))
		out = bitio.AppendUvarint(out, uint64(len(packed)))
		out = append(out, packed...)
		if len(src) == 0 {
			break
		}
	}
	return out, nil
}

// Decompress implements baselines.Compressor.
func (b *BWZ) Decompress(enc []byte) ([]byte, error) {
	total64, hn := bitio.Uvarint(enc)
	if hn == 0 || total64 > 1<<30 {
		return nil, ErrCorrupt
	}
	total := int(total64)
	// The declared total sizes the output only as far as the input can
	// back it; beyond that the output grows as blocks decode, so a short
	// hostile input cannot make the decoder allocate the cap.
	out := make([]byte, 0, min(total, 4*len(enc)))
	pos := hn
	for len(out) < total || total == 0 {
		blockLen64, n := bitio.Uvarint(enc[pos:])
		if n == 0 || blockLen64 > 1<<24 {
			return nil, ErrCorrupt
		}
		pos += n
		row64, n := bitio.Uvarint(enc[pos:])
		if n == 0 {
			return nil, ErrCorrupt
		}
		pos += n
		packedLen64, n := bitio.Uvarint(enc[pos:])
		if n == 0 || packedLen64 > uint64(len(enc)-pos-n) {
			return nil, ErrCorrupt
		}
		pos += n
		stream, err := huffman.Decode(enc[pos : pos+int(packedLen64)])
		if err != nil {
			return nil, err
		}
		pos += int(packedLen64)
		mtf, err := rleInverse(stream)
		if err != nil {
			return nil, err
		}
		bwt := mtfInverse(mtf)
		if uint64(len(bwt)) != blockLen64 || row64 > blockLen64 {
			return nil, ErrCorrupt
		}
		block, err := bwtInverse(bwt, int(row64))
		if err != nil {
			return nil, err
		}
		out = append(out, block...)
		if total == 0 {
			break
		}
	}
	if len(out) != total {
		return nil, ErrCorrupt
	}
	return out, nil
}
