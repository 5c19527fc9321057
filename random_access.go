package fpcompress

import (
	"errors"
	"fmt"
	"io"

	"fpcompress/internal/container"
	"fpcompress/internal/core"
)

// Random access: because every 16 kB chunk is compressed independently
// (paper §3), a compressed block supports decompressing arbitrary byte
// ranges without touching the rest — the capability ZFP markets for
// compressed arrays. It is available for every algorithm without a
// whole-input pre-stage, including the adaptive Auto32/Auto64 modes and
// the windowed variants (Options.WindowedFCM), whose FCM predictor resets
// per chunk. Only default (whole-input) DPratio blocks are excluded: their
// FCM stage spans the whole input, making chunks interdependent, so
// opening one returns ErrNoRandomAccess — recompress with
// Options.WindowedFCM to get randomly accessible DPratio blocks.

// ErrNoRandomAccess reports a block whose chunks are not independent.
var ErrNoRandomAccess = errors.New("fpcompress: block does not support random access (whole-input FCM spans chunks; compress with Options.WindowedFCM for random access)")

// RandomAccess provides ranged reads over one compressed block.
type RandomAccess struct {
	header     *container.Header
	codec      container.Codec
	maxDecoded int
}

// OpenRandomAccess parses a compressed block for ranged reads. The block
// is retained (not copied); it must not be mutated while in use. data may
// be hostile: the container layout is fully validated here, and each
// chunk later decodes under the opts.MaxDecodedSize budget (which bounds
// the per-read allocation; the paper's default chunks are 16 kB).
func OpenRandomAccess(data []byte, opts *Options) (*RandomAccess, error) {
	return openRandomAccess(data, opts, container.Parse)
}

// OpenRandomAccessPartial is OpenRandomAccess for damaged blocks: it
// tolerates torn tails (payload bytes missing off the end) that strict
// parsing rejects, so the surviving chunks stay readable via ReadAtPartial.
// Self-healing (v3) metadata must still pass its own CRC32-C — with the
// tables unverifiable nothing can be located, and ErrHeaderCorrupt is
// returned.
func OpenRandomAccessPartial(data []byte, opts *Options) (*RandomAccess, error) {
	return openRandomAccess(data, opts, container.ParseSalvage)
}

// openRandomAccess opens data for ranged reads with the given container
// parser (strict or salvage).
func openRandomAccess(data []byte, opts *Options, parse func([]byte) (*container.Header, error)) (*RandomAccess, error) {
	a, err := core.FromContainer(data)
	if err != nil {
		return nil, err
	}
	if a.Pre != nil {
		return nil, ErrNoRandomAccess
	}
	h, err := parse(data)
	if err != nil {
		return nil, err
	}
	return &RandomAccess{
		header:     h,
		codec:      a.ChunkCodec(),
		maxDecoded: opts.params().DecodeBudget(),
	}, nil
}

// Len returns the original (uncompressed) length in bytes.
func (ra *RandomAccess) Len() int { return ra.header.OriginalLen }

// ChunkSize returns the independent-chunk granularity in bytes.
func (ra *RandomAccess) ChunkSize() int { return ra.header.ChunkSize }

// ReadAt implements io.ReaderAt over the uncompressed data, decompressing
// only the chunks the range touches. Per the io.ReaderAt contract it
// returns io.EOF (not a private error) when the read stops at end of
// data, so io.SectionReader, io.ReadFull, and errors.Is(err, io.EOF)
// compose with it.
func (ra *RandomAccess) ReadAt(p []byte, off int64) (int, error) {
	return ra.readAt(p, off, nil)
}

// ReadAtPartial is ReadAt for damaged blocks: chunk-level corruption is
// repaired from XOR parity where the block carries it, and chunks lost
// beyond repair are zero-filled in p instead of failing the read. The
// returned ChunkReport records the outcome per chunk — chunks outside the
// requested range stay ChunkSkipped. The error mirrors ReadAt's contract:
// io.EOF when the read stops at end of data, and fatal conditions (a chunk
// whose declared size exceeds the decode budget) abort with the bytes
// recovered so far.
func (ra *RandomAccess) ReadAtPartial(p []byte, off int64) (int, *ChunkReport, error) {
	rep := ra.header.NewReport()
	n, err := ra.readAt(p, off, rep)
	return n, rep, err
}

// readAt is the ranged-read loop of ReadAt (rep nil: a chunk failure fails
// the read, with no parity repair) and ReadAtPartial (chunks are repaired
// where possible, zero-filled otherwise, and their outcomes land in rep).
func (ra *RandomAccess) readAt(p []byte, off int64, rep *ChunkReport) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("fpcompress: negative offset %d", off)
	}
	n := 0
	cs := ra.header.ChunkSize
	for n < len(p) && off+int64(n) < int64(ra.header.OriginalLen) {
		pos := int(off) + n
		ci := pos / cs
		var dec []byte
		var err error
		if rep == nil {
			dec, err = ra.header.DecompressChunkLimit(ci, ra.codec, ra.maxDecoded)
		} else {
			dec, rep.States[ci], err = ra.header.DecompressChunkRepair(ci, ra.codec, ra.maxDecoded)
			if rep.States[ci] == ChunkQuarantined {
				_, hi := rep.Span(ci)
				m := min(hi-pos, len(p)-n)
				clear(p[n : n+m])
				n += m
				continue
			}
		}
		if err != nil {
			return n, err
		}
		n += copy(p[n:], dec[pos-ci*cs:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// errShortRead is the typed error Float32At/Float64At return for requests
// past the declared end of data. It wraps io.EOF (the cause is end of
// data), so errors.Is works with either sentinel.
var errShortRead = fmt.Errorf("fpcompress: read past end of data: %w", io.EOF)

// Float32At decompresses count float32 values starting at value index.
func (ra *RandomAccess) Float32At(index, count int) ([]float32, error) {
	if index < 0 || count < 0 {
		return nil, fmt.Errorf("fpcompress: negative index %d or count %d", index, count)
	}
	// Bounding the request by the declared length up front keeps count*4
	// from overflowing int and refuses the allocation for reads that
	// could only fail later anyway.
	if vals := int64(ra.Len()) / 4; int64(index) > vals || int64(count) > vals-int64(index) {
		return nil, errShortRead
	}
	buf := make([]byte, count*4)
	if _, err := ra.ReadAt(buf, int64(index)*4); err != nil {
		return nil, err
	}
	return BytesFloat32(buf), nil
}

// Float64At decompresses count float64 values starting at value index.
func (ra *RandomAccess) Float64At(index, count int) ([]float64, error) {
	if index < 0 || count < 0 {
		return nil, fmt.Errorf("fpcompress: negative index %d or count %d", index, count)
	}
	if vals := int64(ra.Len()) / 8; int64(index) > vals || int64(count) > vals-int64(index) {
		return nil, errShortRead
	}
	buf := make([]byte, count*8)
	if _, err := ra.ReadAt(buf, int64(index)*8); err != nil {
		return nil, err
	}
	return BytesFloat64(buf), nil
}
