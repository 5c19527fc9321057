package simt

import (
	"errors"
	"sync"
	"sync/atomic"

	"fpcompress/internal/bitio"
	"fpcompress/internal/container"
	"fpcompress/internal/core"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// This file reproduces §3.1's SPspeed/DPspeed parallelization end to end
// in the GPU's structure rather than the CPU engine's:
//
//	encoder: "Each running thread[ block] requests the next available chunk
//	from the worklist, performs the two transformations on it, outputs the
//	compressed size, [receives] the write position from the thread
//	processing the prior chunk, ... and then writes the compressed output
//	to the received write position."
//	decoder: "It first computes the prefix sum over the compressed chunk
//	sizes, yielding ... read positions. Then, each thread independently
//	processes a compressed chunk, running the inverse of the two
//	transformations in the opposite order."
//
// Thread blocks are goroutines pulling from an atomic worklist; write
// positions flow through the Merrill-Garland decoupled look-back; inside a
// block, DIFFMS is an embarrassingly parallel lane map, the MPLG maximum
// is a reduction tree, and difference decoding is the block-level
// inclusive scan. KernelCompress produces byte-identical containers to the
// CPU engine — the paper's CPU/GPU compatibility property, tested in
// kernels_test.go.

// ErrKernelAlgorithm reports an algorithm the kernels do not implement.
var ErrKernelAlgorithm = errors.New("simt: kernels implement SPspeed and DPspeed only")

// kernelPipeline validates and fetches the two-stage speed pipelines.
func kernelPipeline(id core.ID) (*core.Algorithm, error) {
	if id != core.SPspeed && id != core.DPspeed {
		return nil, ErrKernelAlgorithm
	}
	return core.New(id)
}

// KernelCompress compresses src as a simulated GPU launch of the SPspeed
// or DPspeed encoder. The output is byte-identical to the CPU engine's.
func KernelCompress(id core.ID, src []byte, blocks int) ([]byte, error) {
	a, err := kernelPipeline(id)
	if err != nil {
		return nil, err
	}
	if blocks <= 0 {
		blocks = 8
	}
	cs := container.DefaultChunkSize
	nChunks := (len(src) + cs - 1) / cs
	results := make([][]byte, nChunks)
	rawFlags := make([]bool, nChunks)

	// Thread blocks pull chunk indices from the worklist.
	var worklist atomic.Int64
	var wg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(worklist.Add(1)) - 1
				if i >= nChunks {
					return
				}
				lo, hi := i*cs, (i+1)*cs
				if hi > len(src) {
					hi = len(src)
				}
				enc := blockEncodeSpeed(a, src[lo:hi])
				if len(enc) >= hi-lo {
					results[i] = src[lo:hi]
					rawFlags[i] = true
				} else {
					results[i] = enc
				}
			}
		}()
	}
	wg.Wait()

	// Write positions via the decoupled look-back, then a parallel scatter
	// into the contiguous payload (the concatenation the paper pays for).
	sizes := make([]int, nChunks)
	for i, r := range results {
		sizes[i] = len(r)
	}
	offsets := DecoupledLookback(sizes)
	total := 0
	if nChunks > 0 {
		total = offsets[nChunks-1] + sizes[nChunks-1]
	}
	payload := make([]byte, total)
	var wg2 sync.WaitGroup
	var scatter atomic.Int64
	for b := 0; b < blocks; b++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for {
				i := int(scatter.Add(1)) - 1
				if i >= nChunks {
					return
				}
				copy(payload[offsets[i]:], results[i])
			}
		}()
	}
	wg2.Wait()
	return container.Assemble(byte(id), container.ChecksumOf(src), len(src), cs, sizes, rawFlags, payload), nil
}

// blockEncodeSpeed runs DIFFMS then MPLG on one chunk with block-level
// structure; output bytes equal transforms.Pipeline.ForwardInto's.
func blockEncodeSpeed(a *core.Algorithm, chunk []byte) []byte {
	ws := int(a.Word)
	wbits := ws * 8
	n := len(chunk) / ws

	// Lane-parallel DIFFMS: every lane reads its own and its neighbor's
	// word, no cross-lane dependency.
	diffed := make([]uint64, n)
	for i := 0; i < n; i++ {
		if ws == 4 {
			v := wordio.U32(chunk, i)
			var prev uint32
			if i > 0 {
				prev = wordio.U32(chunk, i-1)
			}
			diffed[i] = uint64(wordio.ZigZag32(v - prev))
		} else {
			v := wordio.U64(chunk, i)
			var prev uint64
			if i > 0 {
				prev = wordio.U64(chunk, i-1)
			}
			diffed[i] = wordio.ZigZag64(v - prev)
		}
	}

	// MPLG with a per-subchunk max reduction tree.
	const subchunk = 512
	wordsPer := subchunk / ws
	keepBits := uint(6)
	if ws == 8 {
		keepBits = 7
	}
	header := bitio.AppendUvarint(make([]byte, 0, len(chunk)+len(chunk)/8+16), uint64(len(chunk)))
	w := bitio.NewWriterBuf(header)
	for start := 0; start < n; start += wordsPer {
		end := start + wordsPer
		if end > n {
			end = n
		}
		vals := diffed[start:end]
		maxv := MaxReduceU64(vals)
		flag := uint(0)
		lz := leadingZerosW(maxv, wbits)
		if lz == 0 {
			flag = 1
			zz := make([]uint64, len(vals))
			for i, v := range vals { // lane map
				if ws == 4 {
					zz[i] = uint64(wordio.ZigZag32(uint32(v)))
				} else {
					zz[i] = wordio.ZigZag64(v)
				}
			}
			vals = zz
			lz = leadingZerosW(MaxReduceU64(vals), wbits)
		}
		keep := uint(wbits - lz)
		w.WriteBit(flag)
		w.WriteBits(uint64(keep), keepBits)
		for _, v := range vals {
			w.WriteBits(v, keep)
		}
	}
	out := w.Bytes()
	return append(out, chunk[n*ws:]...)
}

// KernelDecompress decodes a container produced by KernelCompress or the
// CPU engine, §3.1-style: prefix sum over sizes for read positions, then
// independent per-chunk inverse transforms with the block scan for
// difference decoding.
func KernelDecompress(data []byte, blocks int) ([]byte, error) {
	h, err := container.Parse(data)
	if err != nil {
		return nil, err
	}
	id := core.ID(h.Algorithm)
	a, err := kernelPipeline(id)
	if err != nil {
		return nil, err
	}
	if blocks <= 0 {
		blocks = 8
	}
	dst := make([]byte, h.OriginalLen)
	var firstErr atomic.Pointer[error]
	var worklist atomic.Int64
	var wg sync.WaitGroup
	mplg := transforms.MPLG{Word: a.Word}
	for b := 0; b < blocks; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(worklist.Add(1)) - 1
				if i >= h.ChunkCount || firstErr.Load() != nil {
					return
				}
				chunk, raw, err := h.ChunkPayload(i)
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				lo := i * h.ChunkSize
				var dec []byte
				if raw {
					dec = chunk
				} else {
					unpacked, err := mplg.InverseInto(nil, chunk, transforms.NoLimit)
					if err != nil {
						firstErr.CompareAndSwap(nil, &err)
						return
					}
					if a.Word == wordio.W32 {
						dec = BlockDiffMSDecode32(unpacked)
					} else {
						dec = BlockDiffMSDecode64(unpacked)
					}
				}
				hi := lo + h.ChunkSize
				if hi > h.OriginalLen {
					hi = h.OriginalLen
				}
				if len(dec) != hi-lo {
					err := errBadChunkLen
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				copy(dst[lo:], dec)
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}
	return dst, nil
}

// errBadChunkLen reports a chunk that decoded to the wrong size.
var errBadChunkLen = errors.New("simt: chunk decoded to unexpected length")

func leadingZerosW(v uint64, wbits int) int {
	lz := wordio.Clz64(v) - (64 - wbits)
	if lz < 0 {
		lz = 0
	}
	return lz
}
