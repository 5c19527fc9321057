// Package fpcompress is a pure-Go implementation of the four lossless
// floating-point compression algorithms from the ASPLOS'25 paper "Efficient
// Lossless Compression of Scientific Floating-Point Data on CPUs and GPUs"
// (Azami, Fallin, Burtscher): SPspeed and SPratio for single-precision data,
// DPspeed and DPratio for double-precision data.
//
// The algorithms treat IEEE 754 values as raw 32/64-bit integer words —
// compression is exact and decompression restores every input bit. Inputs
// are processed in independent 16 kB chunks compressed in parallel, and
// compressed output is a single contiguous, self-describing block, so
// Decompress needs no side information:
//
//	packed, _ := fpcompress.CompressFloat32s(fpcompress.SPratio, samples, nil)
//	back, _ := fpcompress.DecompressFloat32s(packed, nil)
//
// Speed variants (SPspeed/DPspeed) use two cheap transform stages and favor
// throughput; ratio variants (SPratio/DPratio) use more and slower stages
// and favor compression ratio. All four handle arbitrary byte lengths, but
// the SP algorithms assume 4-byte-aligned value streams and the DP
// algorithms 8-byte-aligned streams for good ratios.
//
// The repository additionally provides adaptive modes (Auto32/Auto64)
// that choose a pipeline separately for every chunk from per-chunk
// statistics, mixing pipelines within one compressed block.
package fpcompress

import (
	"errors"
	"fmt"
	"math"

	"fpcompress/internal/container"
	"fpcompress/internal/core"
)

// Algorithm selects one of the paper's four compression pipelines.
type Algorithm = core.ID

// The four algorithms of the paper (§3, Figure 1).
const (
	// SPspeed compresses single-precision data with maximum throughput
	// (stages: DIFFMS, MPLG).
	SPspeed = core.SPspeed
	// SPratio compresses single-precision data with maximum ratio
	// (stages: DIFFMS, BIT, RZE).
	SPratio = core.SPratio
	// DPspeed compresses double-precision data with maximum throughput
	// (stages: DIFFMS, MPLG at 64-bit granularity).
	DPspeed = core.DPspeed
	// DPratio compresses double-precision data with maximum ratio
	// (stages: FCM, DIFFMS, RAZE, RARE).
	DPratio = core.DPratio
	// SPbalance and DPbalance are repository extensions (not in the
	// paper): the DIFFMS -> MPLG -> RZE midpoint pipelines that the
	// miniature LC-framework search (internal/lcsynth, cmd/lcsearch)
	// ranks between the speed and ratio modes on both axes.
	SPbalance = core.SPbalance
	// DPbalance is the double-precision extension pipeline.
	DPbalance = core.DPbalance
	// Auto32 and Auto64 (repository extensions) pick a pipeline per 16 kB
	// chunk: cheap per-chunk statistics feed a cost model that predicts
	// each candidate's encoded size, and only the predicted winner runs.
	// The container records the choice per chunk, so one block may mix
	// pipelines. Use them when one input interleaves data of different
	// character (mixed fields, multi-variable dumps); on homogeneous data
	// they track the best fixed pipeline at near-speed-variant throughput.
	Auto32 = core.Auto32
	// Auto64 is the double-precision adaptive mode.
	Auto64 = core.Auto64
)

// Options tunes compression and decompression. The zero value (and a nil
// *Options) selects the paper's defaults: 16 kB chunks and one worker per
// available CPU.
type Options struct {
	// ChunkSize overrides the 16 kB chunk granularity. Smaller chunks
	// increase parallelism and per-chunk adaptivity but add per-chunk
	// overhead; the paper picked 16 kB to fit two chunk buffers in L1/shared
	// memory.
	ChunkSize int
	// Parallelism caps the number of worker goroutines (0 = GOMAXPROCS).
	Parallelism int
	// MaxFrameSize bounds the frame length a streaming Reader (and the
	// remote Client.DecompressStream) will accept — and therefore
	// allocate — from the 4-byte frame header; 0 means
	// DefaultMaxFrameSize (64 MiB). Oversized frames fail with ErrStream
	// before any allocation. Writers are unaffected; raise this only when
	// reading streams written with segment sizes above the default cap.
	MaxFrameSize int
	// MaxDecodedSize bounds the bytes one Decompress call (or one frame of
	// a streaming Reader) will allocate for its output. The container
	// header's declared original length is attacker controlled, so it is
	// validated against this budget before any allocation; oversized
	// declarations fail cleanly instead of OOMing the process. 0 means
	// DefaultMaxDecodedSize (64 MiB, matching DefaultMaxFrameSize);
	// negative means no bound — only for trusted local data, never for
	// bytes that crossed a network.
	MaxDecodedSize int
	// Integrity selects the self-healing container layout (format v3): the
	// per-chunk CRC32-C table is stored instead of discarded, and all
	// metadata (header, size table, scheme table) is covered by its own
	// CRC32-C. Costs 4 bytes per chunk. v3 blocks verify every random-access
	// read, localize corruption to single chunks, and support
	// DecompressPartial's repair/quarantine semantics. Implied by Parity.
	Integrity bool
	// Parity > 0 additionally appends one XOR parity chunk per group of
	// Parity data chunks (RAID-5-style), letting decode transparently
	// reconstruct any single lost or corrupt chunk per group. Storage
	// overhead is roughly 1/Parity of the original data size; Parity = 8
	// is a reasonable durability/overhead midpoint.
	Parity int
	// WindowedFCM selects the windowed variant of DPratio (and of Auto64,
	// whose candidate set embeds DPratio's pipeline): the FCM predictor
	// resets at every chunk boundary instead of spanning the whole input,
	// so chunks compress in parallel across workers and decode
	// independently — windowed blocks support OpenRandomAccess and
	// per-chunk DecompressPartial recovery, which whole-input DPratio
	// cannot. The cost is the cross-chunk prediction context (typically a
	// small ratio loss on smooth data). Blocks record the mode (container
	// format v4) and Decompress detects it automatically; compressing any
	// other algorithm with WindowedFCM set is an error.
	WindowedFCM bool
}

// DefaultMaxDecodedSize is the decode budget applied when
// Options.MaxDecodedSize is zero.
const DefaultMaxDecodedSize = container.DefaultMaxDecoded

func (o *Options) params() container.Params {
	if o == nil {
		return container.Params{}
	}
	return container.Params{
		ChunkSize:   o.ChunkSize,
		Parallelism: o.Parallelism,
		MaxDecoded:  o.MaxDecodedSize,
		Integrity:   o.Integrity,
		Parity:      o.Parity,
	}
}

// ErrNotAligned reports a typed-value call whose byte length is not a
// multiple of the value size.
var ErrNotAligned = errors.New("fpcompress: data length not a multiple of the value size")

// ErrDecodeBudget reports a compressed block whose declared output exceeds
// the decode budget (Options.MaxDecodedSize); the allocation is refused
// before it is made. Raise the budget — or set it negative for trusted
// local data — to decode such blocks.
var ErrDecodeBudget = container.ErrBudget

// Compress encodes src with the chosen algorithm and returns a
// self-describing compressed block.
func Compress(alg Algorithm, src []byte, opts *Options) ([]byte, error) {
	return AppendCompress(nil, alg, src, opts)
}

// AppendCompress is Compress appending the compressed block to dst (which
// may be nil) and returning the extended slice. Like append, the result may
// share dst's backing array or be a reallocation; callers must use the
// returned slice and must not assume dst aliases it. Reusing one buffer
// across calls keeps steady-state compression allocation-free.
func AppendCompress(dst []byte, alg Algorithm, src []byte, opts *Options) ([]byte, error) {
	a, err := newAlgorithm(alg, opts)
	if err != nil {
		return nil, err
	}
	return a.CompressAppend(dst, src, opts.params()), nil
}

// ErrWindowedAlgorithm reports Options.WindowedFCM set for an algorithm
// with no windowed variant: windowed FCM applies to DPratio and Auto64
// only (the other pipelines have no cross-chunk predictor state to
// window).
var ErrWindowedAlgorithm = core.ErrNotWindowable

// newAlgorithm builds alg in the mode opts selects (whole-input by
// default, windowed when opts.WindowedFCM is set).
func newAlgorithm(alg Algorithm, opts *Options) (*core.Algorithm, error) {
	if opts != nil && opts.WindowedFCM {
		return core.NewWindowed(alg)
	}
	return core.New(alg)
}

// Decompress decodes a block produced by Compress. The algorithm is read
// from the block header. data may be arbitrary hostile bytes: corrupt
// input returns an error (never a panic), and no allocation exceeds the
// opts.MaxDecodedSize budget (default 64 MiB) plus bounded per-chunk
// working memory. The fresh output is allocated while the chunks decode
// (for DPratio at one worker, just before); meanwhile each worker besides
// the calling goroutine may hold up to 2 MiB of decoded chunks in pooled
// arena memory. DPratio's whole-input FCM stage resolves behind the chunk
// decode, on the workers that decode the chunks. AppendDecompress into a
// reused buffer skips the allocation and is still the fastest path.
func Decompress(data []byte, opts *Options) ([]byte, error) {
	return AppendDecompress(nil, data, opts)
}

// AppendDecompress is Decompress appending the reconstructed bytes to dst
// (which may be nil) and returning the extended slice, with the same
// append-style ownership contract as AppendCompress. On error the returned
// slice is nil and dst's contents are unspecified.
func AppendDecompress(dst []byte, data []byte, opts *Options) ([]byte, error) {
	a, err := core.FromContainer(data)
	if err != nil {
		return nil, err
	}
	return a.DecompressAppend(dst, data, opts.params())
}

// ChunkState is the per-chunk outcome of a degraded decode.
type ChunkState = container.ChunkState

// Per-chunk outcomes reported by DecompressPartial and ReadAtPartial.
const (
	// ChunkSkipped marks a chunk a ranged read did not examine.
	ChunkSkipped = container.ChunkSkipped
	// ChunkOK marks a chunk that decoded and verified clean.
	ChunkOK = container.ChunkOK
	// ChunkRepaired marks a chunk reconstructed from XOR parity and
	// re-verified against its stored CRC32-C.
	ChunkRepaired = container.ChunkRepaired
	// ChunkQuarantined marks a chunk lost beyond repair; its output span is
	// zero-filled.
	ChunkQuarantined = container.ChunkQuarantined
	// ChunkUnverified marks a chunk that decoded structurally but whose
	// integrity cannot be established (v1/v2 blocks under damage).
	ChunkUnverified = container.ChunkUnverified
)

// ChunkReport is the per-chunk outcome of a degraded decode: one ChunkState
// per chunk plus the Span/Counts/AllOK/QuarantinedRanges helpers.
type ChunkReport = container.Report

// ErrHeaderCorrupt reports a self-healing (v3) block whose metadata failed
// its own CRC32-C: nothing in it can be trusted, so even DecompressPartial
// refuses it.
var ErrHeaderCorrupt = container.ErrHeaderChecksum

// ErrChunkCorrupt reports chunk-level corruption beyond parity repair in a
// strict Decompress of a self-healing (v3) block. DecompressPartial
// quarantines such chunks instead of failing.
var ErrChunkCorrupt = container.ErrChunkCorrupt

// ErrPartialPreStage reports a degraded block compressed by an algorithm
// with a whole-input pre-stage (DPratio): damage cannot be localized past
// the pre-stage, so no partial output is possible.
var ErrPartialPreStage = core.ErrPreStagePartial

// DecompressPartial is Decompress for damaged blocks: it verifies chunk by
// chunk, transparently repairs from parity where the block carries it,
// zero-fills what it cannot recover, and returns the decoded bytes together
// with a per-chunk ChunkReport instead of one fatal error. The error is
// non-nil only when nothing can be salvaged: unparseable or
// checksum-failed metadata (ErrHeaderCorrupt), a declared output beyond
// the decode budget, or a pre-stage algorithm under damage
// (ErrPartialPreStage). Note that plain Decompress already self-heals v3
// blocks when parity suffices — reach for DecompressPartial when it
// returns ErrChunkCorrupt and partial data is better than none.
func DecompressPartial(data []byte, opts *Options) ([]byte, *ChunkReport, error) {
	a, err := core.FromContainer(data)
	if err != nil {
		return nil, nil, err
	}
	return a.DecompressPartialAppend(nil, data, opts.params())
}

// CompressedAlgorithm reports which algorithm produced a compressed block.
func CompressedAlgorithm(data []byte) (Algorithm, error) {
	id, err := container.AlgorithmID(data)
	if err != nil {
		return 0, err
	}
	return Algorithm(id), nil
}

// Stages lists the transformation stages of an algorithm in application
// order, matching Figure 1 of the paper.
func Stages(alg Algorithm) ([]string, error) {
	a, err := core.New(alg)
	if err != nil {
		return nil, err
	}
	return a.Stages(), nil
}

// CompressFloat32s compresses a single-precision value slice. alg must be
// a single-precision algorithm (SPspeed, SPratio, SPbalance, or Auto32).
func CompressFloat32s(alg Algorithm, vals []float32, opts *Options) ([]byte, error) {
	if alg != SPspeed && alg != SPratio && alg != SPbalance && alg != Auto32 {
		return nil, fmt.Errorf("fpcompress: %v is not a single-precision algorithm", alg)
	}
	return Compress(alg, Float32Bytes(vals), opts)
}

// DecompressFloat32s decodes a block holding single-precision values.
func DecompressFloat32s(data []byte, opts *Options) ([]float32, error) {
	raw, err := Decompress(data, opts)
	if err != nil {
		return nil, err
	}
	if len(raw)%4 != 0 {
		return nil, ErrNotAligned
	}
	return BytesFloat32(raw), nil
}

// CompressFloat64s compresses a double-precision value slice. alg must be
// a double-precision algorithm (DPspeed, DPratio, DPbalance, or Auto64).
func CompressFloat64s(alg Algorithm, vals []float64, opts *Options) ([]byte, error) {
	if alg != DPspeed && alg != DPratio && alg != DPbalance && alg != Auto64 {
		return nil, fmt.Errorf("fpcompress: %v is not a double-precision algorithm", alg)
	}
	return Compress(alg, Float64Bytes(vals), opts)
}

// DecompressFloat64s decodes a block holding double-precision values.
func DecompressFloat64s(data []byte, opts *Options) ([]float64, error) {
	raw, err := Decompress(data, opts)
	if err != nil {
		return nil, err
	}
	if len(raw)%8 != 0 {
		return nil, ErrNotAligned
	}
	return BytesFloat64(raw), nil
}

// Float32Bytes serializes values to their little-endian IEEE 754 bytes.
func Float32Bytes(vals []float32) []byte {
	b := make([]byte, len(vals)*4)
	for i, v := range vals {
		u := math.Float32bits(v)
		b[i*4] = byte(u)
		b[i*4+1] = byte(u >> 8)
		b[i*4+2] = byte(u >> 16)
		b[i*4+3] = byte(u >> 24)
	}
	return b
}

// BytesFloat32 deserializes little-endian IEEE 754 bytes to values.
func BytesFloat32(b []byte) []float32 {
	n := len(b) / 4
	vals := make([]float32, n)
	for i := 0; i < n; i++ {
		u := uint32(b[i*4]) | uint32(b[i*4+1])<<8 | uint32(b[i*4+2])<<16 | uint32(b[i*4+3])<<24
		vals[i] = math.Float32frombits(u)
	}
	return vals
}

// Float64Bytes serializes values to their little-endian IEEE 754 bytes.
func Float64Bytes(vals []float64) []byte {
	b := make([]byte, len(vals)*8)
	for i, v := range vals {
		u := math.Float64bits(v)
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(u >> (8 * j))
		}
	}
	return b
}

// BytesFloat64 deserializes little-endian IEEE 754 bytes to values.
func BytesFloat64(b []byte) []float64 {
	n := len(b) / 8
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		var u uint64
		for j := 0; j < 8; j++ {
			u |= uint64(b[i*8+j]) << (8 * j)
		}
		vals[i] = math.Float64frombits(u)
	}
	return vals
}
