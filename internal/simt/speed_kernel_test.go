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
// inclusive scan. KernelCompress stores exactly the chunks the CPU engine
// stores — the paper's CPU/GPU compatibility property, tested in
// kernels_test.go against the CPU engine's container.

// ErrKernelAlgorithm reports an algorithm the kernels do not implement.
var ErrKernelAlgorithm = errors.New("simt: kernels implement SPspeed and DPspeed only")

// kernelPipeline validates and fetches the two-stage speed pipelines.
func kernelPipeline(id core.ID) (*core.Algorithm, error) {
	if id != core.SPspeed && id != core.DPspeed {
		return nil, ErrKernelAlgorithm
	}
	return core.New(id)
}

// kernelLaunch is what one simulated encoder launch leaves in device
// memory: every chunk's stored size and raw flag, and the payload the
// chunks were scattered into at their look-back write positions. The CPU
// engine's container stores the same chunks under its header.
type kernelLaunch struct {
	sizes   []int
	raw     []bool
	payload []byte
}

// worklist runs body(i) for every i in [0, n) on blocks thread blocks
// (goroutines) that pull indices from an atomic worklist, the way §3.1's
// encoder and decoder hand out chunks. A block stops at the first body
// that returns false.
func worklist(blocks, n int, body func(i int) bool) {
	if blocks <= 0 {
		blocks = 8
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || !body(i) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// launch encodes every DefaultChunkSize chunk of src through the worklist,
// keeps a chunk raw when its encoding does not shrink it (as the CPU
// engine does), obtains the write positions from the decoupled look-back,
// and scatters the chunks into one contiguous payload in parallel (the
// concatenation the paper pays for).
func launch(src []byte, blocks int, encode func(chunk []byte) []byte) kernelLaunch {
	cs := container.DefaultChunkSize
	nChunks := (len(src) + cs - 1) / cs
	results := make([][]byte, nChunks)
	k := kernelLaunch{sizes: make([]int, nChunks), raw: make([]bool, nChunks)}
	worklist(blocks, nChunks, func(i int) bool {
		chunk := src[i*cs : min((i+1)*cs, len(src))]
		results[i] = encode(chunk)
		if len(results[i]) >= len(chunk) {
			results[i] = chunk
			k.raw[i] = true
		}
		k.sizes[i] = len(results[i])
		return true
	})
	offsets := DecoupledLookback(k.sizes)
	total := 0
	if nChunks > 0 {
		total = offsets[nChunks-1] + k.sizes[nChunks-1]
	}
	k.payload = make([]byte, total)
	worklist(blocks, nChunks, func(i int) bool {
		copy(k.payload[offsets[i]:], results[i])
		return true
	})
	return k
}

// decodeLaunch decodes the chunks of a parsed CPU-engine container through
// the worklist: the container's size table gives every chunk's read
// position (the prefix sum the paper's decoder computes), raw chunks copy
// through, and decode inverts the others, each into its own range of the
// output.
func decodeLaunch(h *container.Header, blocks int, decode func(chunk []byte) ([]byte, error)) ([]byte, error) {
	dst := make([]byte, h.OriginalLen)
	var firstErr atomic.Pointer[error]
	worklist(blocks, h.ChunkCount, func(i int) bool {
		fail := func(err error) bool {
			firstErr.CompareAndSwap(nil, &err)
			return false
		}
		if firstErr.Load() != nil {
			return false
		}
		chunk, raw, err := h.ChunkPayload(i)
		if err != nil {
			return fail(err)
		}
		dec := chunk
		if !raw {
			if dec, err = decode(chunk); err != nil {
				return fail(err)
			}
		}
		lo := i * h.ChunkSize
		if len(dec) != min(lo+h.ChunkSize, h.OriginalLen)-lo {
			return fail(errBadChunkLen)
		}
		copy(dst[lo:], dec)
		return true
	})
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}
	return dst, nil
}

// KernelCompress compresses src as a simulated GPU launch of the SPspeed
// or DPspeed encoder.
func KernelCompress(id core.ID, src []byte, blocks int) (kernelLaunch, error) {
	a, err := kernelPipeline(id)
	if err != nil {
		return kernelLaunch{}, err
	}
	return launch(src, blocks, func(chunk []byte) []byte { return blockEncodeSpeed(a, chunk) }), nil
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

// KernelDecompress decodes a CPU-engine container §3.1-style: read
// positions from the prefix sum over the chunk sizes, then independent
// per-chunk inverse transforms, with the block scan for difference
// decoding.
func KernelDecompress(data []byte, blocks int) ([]byte, error) {
	h, err := container.Parse(data)
	if err != nil {
		return nil, err
	}
	a, err := kernelPipeline(core.ID(h.Algorithm))
	if err != nil {
		return nil, err
	}
	mplg := transforms.MPLG{Word: a.Word}
	return decodeLaunch(h, blocks, func(chunk []byte) ([]byte, error) {
		unpacked, err := mplg.InverseInto(nil, chunk, transforms.NoLimit)
		if err != nil {
			return nil, err
		}
		if a.Word == wordio.W32 {
			return BlockDiffMSDecode32(unpacked), nil
		}
		return BlockDiffMSDecode64(unpacked), nil
	})
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
