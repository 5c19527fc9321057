package baselines

import (
	"errors"

	"fpcompress/internal/bitio"
)

// BatchSize is the independent-batch granularity of nvCOMP's batched API.
const BatchSize = 64 << 10

// ErrBatch reports a corrupt batched stream.
var ErrBatch = errors.New("baselines: corrupt batched stream")

// Batched wraps a compressor so every BatchSize chunk of input is
// compressed independently, mirroring how the nvCOMP batch API assigns
// chunks to the GPU: match windows and symbol statistics reset at batch
// boundaries, which is why the GPU LZ-family codecs cannot exploit
// redundancy that is far apart (and what DPratio's whole-input FCM can).
type Batched struct {
	Inner Compressor
}

// Name implements Compressor.
func (b *Batched) Name() string { return b.Inner.Name() }

// Compress implements Compressor.
func (b *Batched) Compress(src []byte) ([]byte, error) {
	nBatches := (len(src) + BatchSize - 1) / BatchSize
	if nBatches == 0 {
		nBatches = 1
	}
	out := bitio.AppendUvarint(nil, uint64(nBatches))
	parts := make([][]byte, 0, nBatches)
	for i := 0; i < nBatches; i++ {
		lo := i * BatchSize
		hi := lo + BatchSize
		if hi > len(src) {
			hi = len(src)
		}
		if lo > hi {
			lo = hi
		}
		enc, err := b.Inner.Compress(src[lo:hi])
		if err != nil {
			return nil, err
		}
		parts = append(parts, enc)
		out = bitio.AppendUvarint(out, uint64(len(enc)))
	}
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Decompress implements Compressor.
func (b *Batched) Decompress(enc []byte) ([]byte, error) {
	n64, pos := bitio.Uvarint(enc)
	if pos == 0 || n64 > uint64(len(enc))+1 {
		return nil, ErrBatch
	}
	sizes := make([]int, n64)
	total := 0
	for i := range sizes {
		v, n := bitio.Uvarint(enc[pos:])
		// Bounded as uint64 first: a huge size would wrap as int.
		if n == 0 || v > uint64(len(enc)) {
			return nil, ErrBatch
		}
		sizes[i] = int(v)
		total += int(v)
		pos += n
	}
	if len(enc)-pos != total {
		return nil, ErrBatch
	}
	var out []byte
	for _, s := range sizes {
		dec, err := b.Inner.Decompress(enc[pos : pos+s])
		if err != nil {
			return nil, err
		}
		out = append(out, dec...)
		pos += s
	}
	return out, nil
}
