// Package core composes the transformations from internal/transforms into
// the four compression algorithms the paper introduces (§3, Figure 1):
//
//	SPspeed: DIFFMS32 -> MPLG32
//	SPratio: DIFFMS32 -> BIT32 -> RZE
//	DPspeed: DIFFMS64 -> MPLG64
//	DPratio: FCM64 (whole input) -> DIFFMS64 -> RAZE -> RARE (per chunk)
//
// The "SP" algorithms treat the input as 32-bit words (single precision),
// the "DP" algorithms as 64-bit words (double precision); "speed" variants
// use two cheap stages, "ratio" variants trade stages for compression.
// Decompression applies the inverse stages in reverse order.
//
// # Windowed mode
//
// DPratio's FCM pre-stage spans the whole input, which forfeits per-chunk
// random access (it still runs on up to Parallelism workers, partitioned
// by context hash rather than by chunk). NewWindowed builds the windowed
// variant instead: the FCM predictor resets per container chunk (it moves
// from the Pre stage into the chunk pipeline, in table mode), so chunks
// encode and decode independently — parallel across workers, randomly
// accessible, and exactly priceable by the Auto64 selector. The trade is
// recorded as the container v4 windowed flag; whole-input and windowed
// containers reject each other's decoders, and FromContainer picks the
// right mode by peeking at the flag.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"fpcompress/internal/container"
	"fpcompress/internal/par"
	"fpcompress/internal/selector"
	"fpcompress/internal/transforms"
	"fpcompress/internal/transforms/fused"
	"fpcompress/internal/wordio"
)

// preBufPool recycles the whole-input intermediate between a pre-stage
// (DPratio's FCM) and the chunked container engine.
var preBufPool = sync.Pool{New: func() any { return new([]byte) }}

// ID enumerates the algorithms. The byte values are persisted in the
// container header and must not be renumbered.
type ID byte

const (
	// SPspeed targets single-precision data and maximum throughput.
	SPspeed ID = 1
	// SPratio targets single-precision data and maximum compression ratio.
	SPratio ID = 2
	// DPspeed targets double-precision data and maximum throughput.
	DPspeed ID = 3
	// DPratio targets double-precision data and maximum compression ratio.
	DPratio ID = 4
	// SPbalance and DPbalance are repository extensions, not part of the
	// paper: the midpoint pipelines (DIFFMS -> MPLG -> RZE) that the
	// lcsynth search ranks Pareto-optimal between the speed and ratio
	// modes. They demonstrate the paper's design methodology end to end.
	SPbalance ID = 5
	// DPbalance is the double-precision extension pipeline.
	DPbalance ID = 6
	// Auto32 and Auto64 pick a pipeline per 16 kB chunk via the
	// internal/selector cost model and record the choice in the container's
	// v2 per-chunk scheme table; decoding routes each chunk to the pipeline
	// that encoded it. The candidate set is the word size's fixed chunk
	// pipelines (speed, balance, and ratio — without DPratio's whole-input
	// FCM stage, which cannot apply to independently decodable chunks).
	Auto32 ID = 7
	// Auto64 is the double-precision adaptive mode.
	Auto64 ID = 8
)

// String implements fmt.Stringer.
func (id ID) String() string {
	switch id {
	case SPspeed:
		return "SPspeed"
	case SPratio:
		return "SPratio"
	case DPspeed:
		return "DPspeed"
	case DPratio:
		return "DPratio"
	case SPbalance:
		return "SPbalance"
	case DPbalance:
		return "DPbalance"
	case Auto32:
		return "Auto32"
	case Auto64:
		return "Auto64"
	}
	return fmt.Sprintf("ID(%d)", byte(id))
}

// ErrUnknownAlgorithm reports an unregistered algorithm ID in a container.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// Algorithm is one complete compression pipeline: an optional whole-input
// pre-stage (only DPratio's FCM uses it) followed by a per-chunk pipeline
// run under the parallel container engine.
type Algorithm struct {
	ID   ID
	Word wordio.WordSize
	// Pre runs over the entire input before chunking (inverse runs after
	// de-chunking). Nil for all algorithms except whole-input DPratio,
	// whose FCM stage is the only pre-stage.
	Pre *transforms.FCM
	// Chunked is applied independently to every 16 kB chunk (empty for the
	// auto modes, which pick per chunk through Select).
	Chunked transforms.Pipeline
	// Select is the per-chunk pipeline selector driving the Auto32/Auto64
	// modes; nil for the fixed algorithms.
	Select *selector.Selector
	// Windowed marks the per-chunk-predictor variant (NewWindowed): any
	// cross-chunk state resets at chunk boundaries, the container records
	// the v4 windowed flag, and decode requires the flag to match.
	Windowed bool
}

// Name returns the paper's name for the algorithm, with a "-w" suffix for
// the windowed variants.
func (a *Algorithm) Name() string {
	if a.Windowed {
		return a.ID.String() + "-w"
	}
	return a.ID.String()
}

// Stages lists the stage names in application order, including the
// whole-input pre-stage. The auto modes report one pseudo-stage naming
// the selection, since their real stages vary per chunk.
func (a *Algorithm) Stages() []string {
	if a.Select != nil {
		if a.Word == wordio.W32 {
			return []string{"AUTO32"}
		}
		return []string{"AUTO64"}
	}
	var s []string
	if a.Pre != nil {
		s = append(s, a.Pre.Name())
	}
	return append(s, a.Chunked.Names()...)
}

// ChunkCodec returns the container codec this algorithm encodes and
// decodes chunks with: the per-chunk selector for the auto modes, the
// fixed chunk pipeline otherwise — resolved to its fused single-pass
// kernel when one exists (byte-identical to the stage-by-stage pipeline,
// so the container format is unaffected). Random access uses it to decode
// single chunks of any non-pre-stage algorithm.
func (a *Algorithm) ChunkCodec() container.Codec {
	if a.Select != nil {
		return a.Select
	}
	return chunkCodec{fused.Match(a.Chunked)}
}

// Compress encodes src into a self-describing container.
func (a *Algorithm) Compress(src []byte, p container.Params) []byte {
	return a.CompressAppend(nil, src, p)
}

// CompressAppend is Compress appending the container to dst (which may be
// nil) and returning the extended slice, with append-semantics buffer
// ownership (see the transforms package comment). The pre-stage
// intermediate, when present, lives in a pooled buffer.
func (a *Algorithm) CompressAppend(dst, src []byte, p container.Params) []byte {
	p.Windowed = a.Windowed
	buf := src
	var pb *[]byte
	if a.Pre != nil {
		pb = preBufPool.Get().(*[]byte)
		*pb = a.Pre.ForwardWorkers((*pb)[:0], src, p.Parallelism)
		buf = *pb
	}
	dst = container.CompressAppend(dst, buf, byte(a.ID), a.ChunkCodec(), p)
	if pb != nil {
		preBufPool.Put(pb)
	}
	return dst
}

// Decompress decodes a container produced by Compress. It verifies the
// container's algorithm ID matches. The decode budget in p bounds the
// final decoded size; when a whole-input pre-stage is present (DPratio's
// FCM), the container-level budget is scaled by the stage's worst-case
// expansion so a legal payload of exactly budget bytes still decodes.
func (a *Algorithm) Decompress(data []byte, p container.Params) ([]byte, error) {
	return a.DecompressAppend(nil, data, p)
}

// DecompressAppend is Decompress appending the reconstructed bytes to dst
// (which may be nil) and returning the extended slice, with
// append-semantics buffer ownership (see the transforms package comment).
// When a pre-stage is present its encoded intermediate decodes into a
// pooled buffer; otherwise chunks decode straight into dst.
func (a *Algorithm) DecompressAppend(dst []byte, data []byte, p container.Params) ([]byte, error) {
	out, _, err := a.decompress(dst, data, p, false)
	return out, err
}

// decompress is the body of DecompressAppend and, with partial set,
// DecompressPartialAppend: the container decodes strictly or partially,
// and a pre-stage inverts the intermediate out of a pooled buffer, behind
// the chunk decode (see preFollow).
func (a *Algorithm) decompress(dst, data []byte, p container.Params, partial bool) ([]byte, *container.Report, error) {
	if err := a.checkContainer(data); err != nil {
		return nil, nil, err
	}
	if a.Pre == nil {
		return container.DecompressFollow(dst, data, a.ChunkCodec(), p, partial, nil)
	}
	pb := preBufPool.Get().(*[]byte)
	defer preBufPool.Put(pb)
	f := &preFollow{dst: dst, budget: p.DecodeBudget()}
	decode := func() ([]byte, *container.Report, error) {
		return container.DecompressFollow((*pb)[:0], data, a.ChunkCodec(), a.preParams(p), partial, f.follow)
	}
	var buf []byte
	var rep *container.Report
	var err error
	n, parallel := a.preGrowLen(dst, data, p)
	switch {
	case n > 0 && parallel:
		// Growing a fresh output zeroes it, and faults its pages in, on
		// the goroutine that allocates it: a second worker does that
		// while the chunks decode.
		grown := make(chan struct{})
		f.grown = grown
		par.Run(2, func(w int) {
			if w == 1 {
				f.dst = slices.Grow(dst, n)
				close(grown)
				return
			}
			buf, rep, err = decode()
		}, func() {})
	case n > 0:
		f.dst = slices.Grow(dst, n)
		fallthrough
	default:
		buf, rep, err = decode()
	}
	if err == nil && rep != nil && !rep.AllOK() {
		err = fmt.Errorf("%w: %s (%s)", ErrPreStagePartial, a.ID, rep.Summary())
	}
	if err != nil {
		if f.state == followOn {
			f.fcm.Discard()
		}
		return nil, rep, err
	}
	*pb = buf
	out, err := f.finish(buf)
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}

// preFollow inverts DPratio's FCM stream behind the chunk decode: the
// container reports each longer prefix of its output that has decoded
// OK, and the follower resolves every word whose value and distance words
// lie in it, into dst. The stream holds all value words first, then all
// distance words, so the resolving starts once the first distance chunk
// lands and overlaps the rest of the chunk decode. It starts only once
// chunk 0 shows a length prefix that matches the container's declared
// length and dst has room for that output (grown ahead by decompress, or
// warm), so it never allocates on a decode worker. Otherwise finish
// inverts the whole stream after the decode, as InverseInto does. An FCM
// error waits for finish, so a container error keeps precedence.
type preFollow struct {
	fcm    transforms.FCMDecoder
	dst    []byte        // the caller's dst, with its room once grown is closed
	grown  chan struct{} // closed once a second worker has grown dst; nil once seen
	budget int
	state  int // followWaiting, followOn or followOff
	at     int // the decoded prefix at the last resolving step
}

// resolveStep is how many more bytes of the stream must have decoded
// before the follower resolves again, unless the stream is complete. On a
// 2-vCPU Xeon VM (avx2), in rounds of 300 alternating decodes of 2 MiB of
// internal/sdr data at two workers, resolving in steps of 128 KiB (eight
// chunks of distance words) took 9.8–17% less time than resolving after
// the chunk decode, and resolving after every chunk 4.6–10% less. The
// cause is not profiled; fewer hand-offs of the output between the two
// workers' caches is the likely one.
const resolveStep = 128 << 10

const (
	followWaiting = iota // for chunk 0, or for dst's room
	followOn             // resolving behind the decode
	followOff            // left to finish
)

// follow is the container's report of its output's decoded prefix n.
func (f *preFollow) follow(enc []byte, n int) {
	if f.state == followWaiting {
		if f.grown != nil {
			select {
			case <-f.grown:
				f.grown = nil
			default:
				return
			}
		}
		if n < 8 {
			return // FCM's length prefix has not landed yet
		}
		want := transforms.FCM{}.DecodedLen(len(enc))
		if want < 0 || cap(f.dst)-len(f.dst) < want {
			f.state = followOff
			return
		}
		got, err := f.fcm.Begin(f.dst, enc[:n], len(enc), f.budget)
		if err != nil {
			f.state = followOff
			return
		}
		if got != want {
			f.fcm.Discard()
			f.state = followOff
			return
		}
		f.state = followOn
	}
	if f.state == followOn && (n-f.at >= resolveStep || n == len(enc)) {
		f.at = n
		f.fcm.Resolve(enc[:n])
	}
}

// finish resolves the rest of the whole stream enc once the container has
// decoded it, or all of it when nothing was resolved ahead.
func (f *preFollow) finish(enc []byte) ([]byte, error) {
	if f.state != followOn {
		if _, err := f.fcm.Begin(f.dst, enc, len(enc), f.budget); err != nil {
			return nil, err
		}
	}
	return f.fcm.End(enc)
}

// preGrowLen reports how many bytes decompress grows dst by for the
// pre-stage output, and whether a second worker grows it while the chunks
// decode, because the container decodes on more than one worker
// (Parallelism, or GOMAXPROCS, capped at its chunk count); at one worker
// dst is grown before the decode. The length is what the container's
// declared size implies, once that is within p's decode budget and beyond
// dst's spare capacity; otherwise it is 0. Only a container that parses
// is grown for, so a header that disagrees with its tables or its length
// fails before anything is allocated, as without this. The pre-stage's
// own length prefix stays authoritative: when it disagrees, its decode
// reallocates or fails exactly as without this.
func (a *Algorithm) preGrowLen(dst, data []byte, p container.Params) (n int, parallel bool) {
	declared, chunks, err := container.DeclaredSize(data)
	if err != nil {
		return 0, false
	}
	// An impossible length reads as -1, which dst always has room for.
	n = a.Pre.DecodedLen(declared)
	if budget := p.DecodeBudget(); (budget >= 0 && n > budget) || n <= cap(dst)-len(dst) {
		return 0, false
	}
	// DeclaredSize reads the header alone; Parse checks it against the
	// size table and the bytes present.
	if _, err := container.Parse(data); err != nil {
		return 0, false
	}
	workers := p.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return n, min(workers, chunks) >= 2
}

// preParams scales the container-level decode budget in p by the
// pre-stage's worst-case expansion, so a legal payload of exactly the
// budget still decodes; the pre-stage enforces the budget itself.
func (a *Algorithm) preParams(p container.Params) container.Params {
	if budget := p.DecodeBudget(); budget >= 0 {
		if budget < math.MaxInt/2-16 {
			p.MaxDecoded = a.Pre.EncodedCap(budget)
		} else {
			p.MaxDecoded = -1 // the scaled budget would overflow: the pre-stage enforces it
		}
	}
	return p
}

// ErrWindowedMismatch reports a container whose windowed flag disagrees
// with the decoding algorithm's mode. The encodings are deliberately
// incompatible — the whole-input FCM predictor carries history across
// chunk boundaries that the windowed decoder resets, and vice versa — so
// the mismatch is rejected before any chunk decodes.
var ErrWindowedMismatch = errors.New("core: container windowed flag does not match algorithm mode")

// checkContainer validates the container's algorithm ID and windowed flag
// against this algorithm before any decode work.
func (a *Algorithm) checkContainer(data []byte) error {
	id, err := container.AlgorithmID(data)
	if err != nil {
		return err
	}
	if ID(id) != a.ID {
		return fmt.Errorf("%w: container says %s, decoding as %s", ErrUnknownAlgorithm, ID(id), a.ID)
	}
	w, err := container.IsWindowed(data)
	if err != nil {
		return err
	}
	if w != a.Windowed {
		if w {
			return fmt.Errorf("%w: windowed container, whole-input %s decoder", ErrWindowedMismatch, a.ID)
		}
		return fmt.Errorf("%w: whole-input container, windowed %s decoder", ErrWindowedMismatch, a.ID)
	}
	return nil
}

// ErrPreStagePartial reports a degraded container whose algorithm runs a
// whole-input pre-stage (DPratio's FCM): a quarantined chunk poisons every
// later byte of the pre-stage stream, so no partial reconstruction is
// possible. The accompanying Report still localizes the damage (its chunk
// indices refer to the encoded pre-stage stream).
var ErrPreStagePartial = errors.New("core: whole-input pre-stage cannot decode a degraded container")

// DecompressPartial is the degraded-decode entry point: best-effort
// decoding of a damaged container with a per-chunk container.Report. See
// container.DecompressFollow for the chunk semantics; for pre-stage
// algorithms the report must come back fully intact (repairs included) or
// the decode fails with ErrPreStagePartial.
func (a *Algorithm) DecompressPartial(data []byte, p container.Params) ([]byte, *container.Report, error) {
	return a.DecompressPartialAppend(nil, data, p)
}

// DecompressPartialAppend is DecompressPartial appending to dst (which may
// be nil), with append-semantics buffer ownership.
func (a *Algorithm) DecompressPartialAppend(dst, data []byte, p container.Params) ([]byte, *container.Report, error) {
	return a.decompress(dst, data, p, true)
}

// chunkCodec adapts a chunk pipeline, resolved once by fused.Match to its
// fused single-pass kernel or to itself, to the container.IntoCodec
// interface, so the engine can hand each chunk its exact decoded size as
// an allocation bound and encode/decode chunks without per-chunk buffers.
// Its ForwardInto and InverseInto are the embedded transform's.
type chunkCodec struct {
	transforms.Transform
}

func (c chunkCodec) Forward(chunk []byte) []byte { return c.ForwardInto(nil, chunk) }
func (c chunkCodec) Inverse(enc []byte) ([]byte, error) {
	return c.InverseInto(nil, enc, transforms.NoLimit)
}
func (c chunkCodec) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return c.InverseInto(nil, enc, maxDecoded)
}

// New constructs the named algorithm.
func New(id ID) (*Algorithm, error) {
	switch id {
	case SPspeed:
		return &Algorithm{
			ID:   SPspeed,
			Word: wordio.W32,
			Chunked: transforms.Pipeline{
				transforms.DiffMS{Word: wordio.W32},
				transforms.MPLG{Word: wordio.W32},
			},
		}, nil
	case SPratio:
		return &Algorithm{
			ID:   SPratio,
			Word: wordio.W32,
			Chunked: transforms.Pipeline{
				transforms.DiffMS{Word: wordio.W32},
				transforms.Bit{Word: wordio.W32},
				transforms.RZE{},
			},
		}, nil
	case DPspeed:
		return &Algorithm{
			ID:   DPspeed,
			Word: wordio.W64,
			Chunked: transforms.Pipeline{
				transforms.DiffMS{Word: wordio.W64},
				transforms.MPLG{Word: wordio.W64},
			},
		}, nil
	case DPratio:
		return &Algorithm{
			ID:   DPratio,
			Word: wordio.W64,
			Pre:  &transforms.FCM{},
			Chunked: transforms.Pipeline{
				transforms.DiffMS{Word: wordio.W64},
				transforms.RAZE{},
				transforms.RARE{},
			},
		}, nil
	case SPbalance:
		return &Algorithm{
			ID:   SPbalance,
			Word: wordio.W32,
			Chunked: transforms.Pipeline{
				transforms.DiffMS{Word: wordio.W32},
				transforms.MPLG{Word: wordio.W32},
				transforms.RZE{},
			},
		}, nil
	case DPbalance:
		return &Algorithm{
			ID:   DPbalance,
			Word: wordio.W64,
			Chunked: transforms.Pipeline{
				transforms.DiffMS{Word: wordio.W64},
				transforms.MPLG{Word: wordio.W64},
				transforms.RZE{},
			},
		}, nil
	case Auto32:
		return &Algorithm{
			ID:     Auto32,
			Word:   wordio.W32,
			Select: selector.New(wordio.W32),
		}, nil
	case Auto64:
		return &Algorithm{
			ID:     Auto64,
			Word:   wordio.W64,
			Select: selector.New(wordio.W64),
		}, nil
	}
	return nil, fmt.Errorf("%w: id %d", ErrUnknownAlgorithm, byte(id))
}

// ErrNotWindowable reports a NewWindowed request for an algorithm with no
// windowed variant: only DPratio (and Auto64, whose ratio candidate embeds
// it) carries cross-chunk predictor state to window.
var ErrNotWindowable = errors.New("core: windowed FCM applies to DPratio and Auto64 only")

// NewWindowed constructs the windowed (per-chunk predictor) variant of the
// named algorithm. For DPratio the whole-input FCM pre-stage moves into
// the chunk pipeline in table mode as FCMW64 — FCM(table) per chunk, with
// the value and distance halves of its stream each encoded by its own
// DIFFMS64 -> RAZE -> RARE segment (see transforms.FCMW), fused into a
// single pass — so chunks compress in parallel and decode independently
// (random access included). For Auto64 the selector prices that windowed
// ratio pipeline as a fourth per-chunk candidate. Containers record the v4 windowed flag; whole-input
// containers and decoders are unaffected and byte-identical.
func NewWindowed(id ID) (*Algorithm, error) {
	switch id {
	case DPratio:
		return &Algorithm{
			ID:       DPratio,
			Word:     wordio.W64,
			Chunked:  transforms.Pipeline{transforms.FCMW{}},
			Windowed: true,
		}, nil
	case Auto64:
		return &Algorithm{
			ID:       Auto64,
			Word:     wordio.W64,
			Select:   selector.NewWindowed(wordio.W64),
			Windowed: true,
		}, nil
	}
	return nil, fmt.Errorf("%w: id %s", ErrNotWindowable, id)
}

// All returns the paper's four algorithms in paper order.
func All() []*Algorithm {
	return build(SPspeed, SPratio, DPspeed, DPratio)
}

func build(ids ...ID) []*Algorithm {
	out := make([]*Algorithm, 0, len(ids))
	for _, id := range ids {
		a, err := New(id)
		if err != nil {
			panic(err) // unreachable: ids are the package's own constants
		}
		out = append(out, a)
	}
	return out
}

// FromContainer inspects compressed data and constructs the matching
// algorithm for decompression, selecting the windowed variant when the
// container's v4 flag records one.
func FromContainer(data []byte) (*Algorithm, error) {
	id, err := container.AlgorithmID(data)
	if err != nil {
		return nil, err
	}
	w, err := container.IsWindowed(data)
	if err != nil {
		return nil, err
	}
	if w {
		return NewWindowed(ID(id))
	}
	return New(ID(id))
}
