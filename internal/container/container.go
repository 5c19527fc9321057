// Package container implements the chunked compressed-data container shared
// by all four algorithms, together with the parallel compression engine.
//
// Following paper §3, the input is split into independent 16 kB chunks that
// are compressed and decompressed in parallel: chunks are handed to worker
// goroutines dynamically (an atomic work counter stands in for the paper's
// worklist) to maximize load balance, and the compressed chunks are
// concatenated into one contiguous block — the paper stresses that, unlike
// nvCOMP, its compressors pay for this concatenation. Decompression first
// computes a prefix sum over the stored compressed-chunk sizes to obtain
// each chunk's read position, after which every chunk decodes independently
// because decompressed chunk sizes are known a priori.
//
// To cap worst-case expansion, any chunk whose encoding is not smaller than
// the chunk itself is stored raw and marked as such (§3).
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fpcompress/internal/bitio"
	"fpcompress/internal/par"
)

// DefaultChunkSize is 16 kB, chosen by the paper so two chunk buffers fit in
// a GPU's shared memory and a CPU's L1 data cache.
const DefaultChunkSize = 16384

// magic identifies the container format.
var magic = [4]byte{'F', 'P', 'C', 'Z'}

// layout is the set of optional sections a container carries, and the one
// place that maps that set to the header's version and flags bytes. On top
// of the paper's §3 container (header, size table, chunk payloads),
// schemes adds a per-chunk scheme table for SchemeCodecs; integrity adds
// the per-chunk and parity CRC tables under a metadata CRC32-C
// (integrity.go); parity adds XOR parity groups, addressed through the
// integrity tables; windowed adds no section but records that every chunk
// was encoded with per-chunk (window-reset) predictor state. The writer
// derives the set from Params and the codec; parseLayout accepts exactly
// the (version, flags) pairs that version and flags produce.
type layout struct {
	schemes, parity, integrity, windowed bool
}

// Flags-byte bits. The flags byte follows the fixed header from version 3
// on; version 3 implies the integrity tables, so only version 4 records
// them as a bit.
const (
	flagSchemes   byte = 1 << 0
	flagParity    byte = 1 << 1
	flagWindowed  byte = 1 << 2
	flagIntegrity byte = 1 << 3
)

// version returns the header's version byte: the oldest layout version
// that can express the set.
func (l layout) version() byte {
	switch {
	case l.windowed:
		return 4
	case l.integrity:
		return 3
	case l.schemes:
		return 2
	}
	return 1
}

// hasFlagsByte reports whether the header carries the flags byte
// (versions 3 and 4).
func (l layout) hasFlagsByte() bool { return l.integrity || l.windowed }

// flags returns the flags byte (0 when the header has none).
func (l layout) flags() byte {
	if !l.hasFlagsByte() {
		return 0
	}
	var f byte
	if l.schemes {
		f |= flagSchemes
	}
	if l.parity {
		f |= flagParity
	}
	if l.windowed {
		f |= flagWindowed
		if l.integrity {
			f |= flagIntegrity
		}
	}
	return f
}

// parseLayout reads the magic, the version byte and, from version 3 on,
// the flags byte, and returns the section set they declare. It accepts a
// pair only if that set writes back the same two bytes and its parity has
// integrity to address it: every pair no writer emits is ErrFormat.
func parseLayout(data []byte) (layout, error) {
	if len(data) < 10 || [4]byte(data[:4]) != magic {
		return layout{}, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	v, f := data[4], byte(0)
	if v >= 3 {
		if len(data) < 11 {
			return layout{}, fmt.Errorf("%w: truncated v%d header", ErrFormat, v)
		}
		f = data[10]
	}
	l := layout{
		schemes:   v == 2 || f&flagSchemes != 0,
		parity:    f&flagParity != 0,
		integrity: v == 3 || f&flagIntegrity != 0,
		windowed:  f&flagWindowed != 0,
	}
	if l.version() != v || l.flags() != f || (l.parity && !l.integrity) {
		return layout{}, fmt.Errorf("%w: version %d with flags %#02x is no written layout", ErrFormat, v, f)
	}
	return l, nil
}

// ErrFormat reports an invalid or corrupt container.
var ErrFormat = errors.New("container: invalid format")

// ErrChecksum reports decompressed data whose CRC32-C does not match the
// checksum recorded at compression time.
var ErrChecksum = errors.New("container: checksum mismatch")

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Codec compresses and decompresses one chunk. Implementations must be safe
// for concurrent use (the engine calls them from many goroutines).
type Codec interface {
	Forward(chunk []byte) []byte
	Inverse(enc []byte) ([]byte, error)
}

// BudgetCodec is implemented by codecs whose inverse can bound its own
// allocation. The engine knows every chunk's exact decoded size, so it
// passes that as the budget: a corrupt chunk claiming a huge decoded
// length then fails before allocating instead of after.
type BudgetCodec interface {
	Codec
	InverseLimit(enc []byte, maxDecoded int) ([]byte, error)
}

// IntoCodec is implemented by codecs supporting append-into encode and
// decode (the transforms.Pipeline idiom): ForwardInto appends the encoding
// of chunk to dst and returns the extended slice; InverseInto appends the
// decoded bytes under the maxDecoded budget. The engine uses these to
// encode into per-worker arenas and decode straight into the pre-sized
// output, never allocating per chunk. Implementations must be safe for
// concurrent use and must not retain dst beyond the call.
type IntoCodec interface {
	BudgetCodec
	ForwardInto(dst, chunk []byte) []byte
	InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error)
}

// SchemeCodec is implemented by codecs that choose a pipeline per chunk
// (auto mode). ForwardSchemeInto appends the encoding of chunk to dst and
// additionally returns the scheme byte identifying the pipeline used;
// InverseSchemeInto decodes one chunk according to its recorded scheme.
// The engine writes a scheme table for these codecs, one scheme byte per
// chunk after the size table; scheme byte 0 is reserved by the container
// for raw-fallback chunks, which never reach the codec.
// Implementations must be safe for concurrent use and must not retain dst.
type SchemeCodec interface {
	Codec
	ForwardSchemeInto(dst, chunk []byte) ([]byte, byte)
	InverseSchemeInto(dst, enc []byte, scheme byte, maxDecoded int) ([]byte, error)
}

// inverse decodes one chunk through the tightest interface the codec
// offers.
func inverse(codec Codec, enc []byte, maxDecoded int) ([]byte, error) {
	if bc, ok := codec.(BudgetCodec); ok {
		return bc.InverseLimit(enc, maxDecoded)
	}
	return codec.Inverse(enc)
}

// DefaultMaxDecoded is the decode budget applied when Params.MaxDecoded is
// zero: the most bytes a decode will allocate for the reconstructed
// output of one container. It matches the streaming layer's default frame
// cap so a single malformed header cannot OOM a worker.
const DefaultMaxDecoded = 64 << 20

// Params tunes the engine.
type Params struct {
	// ChunkSize is the chunk granularity in bytes; 0 means DefaultChunkSize.
	ChunkSize int
	// Parallelism is the worker count; 0 means GOMAXPROCS.
	Parallelism int
	// MaxDecoded bounds the bytes a decode will allocate for one
	// container's output, validated against the header's declared original
	// length before any allocation. 0 means DefaultMaxDecoded; negative
	// means no bound (trusted input only).
	MaxDecoded int
	// Integrity adds the integrity tables (version 3): the per-chunk
	// CRC32-C table is stored (instead of folded into the whole-input CRC
	// and discarded) and the header, size table, and scheme table are
	// covered by their own CRC32-C. Costs 4 bytes per chunk plus 5 header
	// bytes. Implied by Parity > 0.
	Integrity bool
	// Parity > 0 additionally appends one XOR parity chunk per group of
	// Parity data chunks, letting decode reconstruct any single lost or
	// corrupt chunk per group. Overhead is ~ChunkSize/Parity bytes per
	// chunk-size worth of input plus 4 bytes per group.
	Parity int
	// Windowed selects version 4: it records (via the flags byte) that
	// every chunk was encoded with per-chunk predictor state — the codec
	// resets any cross-chunk history at each chunk boundary — so chunks
	// decode independently and random access works even for algorithms
	// whose default mode runs a whole-input pre-stage. The container layer
	// stores the flag; producing actually window-reset chunk encodings is
	// the codec's contract.
	Windowed bool
}

func (p Params) chunkSize() int {
	if p.ChunkSize <= 0 {
		return DefaultChunkSize
	}
	return p.ChunkSize
}

// DecodeBudget resolves the effective decode budget: -1 means unlimited,
// any other value is the byte cap.
func (p Params) DecodeBudget() int {
	switch {
	case p.MaxDecoded == 0:
		return DefaultMaxDecoded
	case p.MaxDecoded < 0:
		return -1
	}
	return p.MaxDecoded
}

func (p Params) workers(nChunks int) int {
	w := p.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nChunks {
		w = nChunks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Header describes a parsed container.
type Header struct {
	// Version is the container's version byte, computed from its section
	// set (see layout): 1 plain, 2 with a scheme table, 3 with integrity
	// tables, 4 windowed.
	Version     byte
	Algorithm   byte
	OriginalLen int
	ChunkSize   int
	ChunkCount  int
	// CRC is the CRC32-C of the original (pre-compression) bytes; verified
	// after decompression so corruption that survives decoding is caught.
	CRC uint32
	// layout is the container's section set.
	layout layout
	// ParityGroup is the parity group size N (one XOR parity chunk per N
	// data chunks); 0 when the container carries no parity.
	ParityGroup int
	// entries[i] = compressed size <<1 | compressedFlag
	entries []uint64
	// schemes is the per-chunk scheme table (nil without one); it aliases
	// the parsed container.
	schemes []byte
	// chunkCRCs is the per-chunk CRC32-C table (4 LE bytes per chunk,
	// hashing each chunk's *original* bytes); nil without integrity
	// tables. Aliases the parsed container.
	chunkCRCs []byte
	// parityCRCs is the per-group parity-chunk CRC32-C table (4 LE bytes
	// per group, hashing the stored parity bytes); nil without parity.
	parityCRCs []byte
	// offsets is the prefix sum over stored chunk sizes, computed once in
	// Parse: chunk i's bytes are payload[offsets[i]:offsets[i+1]]. Cached
	// so per-chunk random access is O(1) instead of a linear rescan.
	offsets []int
	// payload is the concatenated chunk data. A salvage (lenient) parse of a
	// torn container may leave it shorter than the size table's total; the
	// strict parse guarantees it complete.
	payload []byte
	// parity is the parity payload region following the data payload
	// (group g's bytes occupy [g*ChunkSize, g*ChunkSize+parityLen(g))); it
	// too may be short after a salvage parse.
	parity []byte
}

// Windowed reports whether the container records per-chunk (window-reset)
// predictor state: every chunk decodes independently of its neighbors,
// even for algorithms whose default mode runs a whole-input pre-stage.
func (h *Header) Windowed() bool { return h.layout.windowed }

// IsWindowed reads a container's version and flags bytes and reports
// whether it uses the windowed (per-chunk predictor state) layout, without
// parsing the tables. Callers use it to pick the matching codec mode
// before decode.
func IsWindowed(data []byte) (bool, error) {
	l, err := parseLayout(data)
	return l.windowed, err
}

// ChunkScheme returns chunk i's scheme byte: 0 for raw chunks and for
// every chunk of a container without a scheme table (whose single codec
// needs no routing), otherwise the pipeline identifier recorded there.
func (h *Header) ChunkScheme(i int) byte {
	if h.schemes == nil {
		return 0
	}
	return h.schemes[i]
}

// ChunkStoredLen returns the stored byte size of chunk i in the payload
// (the compressed size, or the span size for raw chunks).
func (h *Header) ChunkStoredLen(i int) int { return int(h.entries[i] >> 1) }

// chunkSpan returns the original-data byte range [lo,hi) that chunk i
// decodes to.
func (h *Header) chunkSpan(i int) (lo, hi int) {
	lo = i * h.ChunkSize
	hi = lo + h.ChunkSize
	if hi > h.OriginalLen {
		hi = h.OriginalLen
	}
	return lo, hi
}

// growExact extends b by exactly n bytes (contents of the new tail are
// unspecified), allocating no spare capacity on reallocation — the engine
// computes exact output sizes, so over-allocation would only waste memory.
func growExact(b []byte, n int) []byte {
	l := len(b)
	if cap(b)-l >= n {
		return b[: l+n : cap(b)]
	}
	nb := make([]byte, l+n)
	copy(nb, b)
	return nb
}

// engineState holds the per-call bookkeeping of CompressAppend and the
// decode loop (chunk records, per-chunk CRCs and states, per-worker
// arenas), recycled through a pool so the steady state allocates none of it.
type engineState struct {
	sizes   []int        // compressed (or raw) size of chunk i
	flags   []byte       // 1 = compressed, 0 = raw fallback
	schemes []byte       // chunk i's scheme byte (SchemeCodec encodes only)
	enc     [][]byte     // chunk i's encoding within its worker's arena (nil = raw, scattered from src)
	pos     []int        // chunk i's offset within the payload (prefix sum of sizes)
	crcs    []uint32     // CRC32-C of chunk i's original bytes
	states  []ChunkState // chunk i's decode outcome (strict decodes)
	errs    []error      // why chunk i failed to decode or verify
	arenas  []arena      // per-worker encode arenas
	parity  []byte       // concatenated XOR parity blocks (parity encodes only)
	pcrcs   []uint32     // CRC32-C of each parity block

	// A decode's output (see decode): dst is the caller's slice grown to
	// hold it, and out the part the chunks decode into. While ready is
	// open, worker 0 is still growing dst, and the other workers decode
	// ahead into their arenas.
	dst, out []byte
	ready    chan struct{}

	fol follower // a followed decode's progress (see DecompressFollow)
}

// follower tracks which chunks of a followed decode have landed, that is
// decoded OK and sit in place in the output, and reports each longer
// prefix of landed chunks through fn (nil when the decode is not
// followed).
type follower struct {
	fn     func(out []byte, n int)
	cs     int             // the container's chunk size
	landed []atomic.Uint32 // chunk i's decodedOK and inPlace bits
	prefix int             // chunks reported so far
	busy   atomic.Bool     // the try-lock one report runs under
}

// The bits of a chunk's landing record; each is added once.
const (
	decodedOK = 1 << iota
	inPlace
	landedBits = decodedOK | inPlace
)

// land adds bits to chunk i's landing record in a followed decode and, if
// the chunk is in place, reports any longer prefix of landed chunks. A
// worker that finds a report running leaves the step to it; the running
// one looks again once its report returns, so no landing waits for a
// later one to be reported, and the caller sees the whole output once the
// decode returns.
func (st *engineState) land(i int, bits uint32) {
	f := &st.fol
	if f.fn == nil {
		return
	}
	f.landed[i].Add(bits)
	if bits&inPlace == 0 {
		return // held ahead of the output: it lands when flushed
	}
	for f.busy.CompareAndSwap(false, true) {
		k := f.prefix
		for k < len(f.landed) && f.landed[k].Load() == landedBits {
			k++
		}
		if k > f.prefix {
			// Chunks that landed sit in the output, so st.out is set.
			f.prefix = k
			n := len(st.out) // the last chunk may be short
			if k < len(f.landed) {
				n = k * f.cs
			}
			f.fn(st.out, n)
		}
		f.busy.Store(false)
		if k == len(f.landed) || f.landed[k].Load() != landedBits {
			return
		}
	}
}

var enginePool = sync.Pool{New: func() any { return new(engineState) }}

func getEngineState(nChunks, nWorkers int) *engineState {
	st := enginePool.Get().(*engineState)
	if cap(st.sizes) < nChunks {
		st.sizes = make([]int, nChunks)
		st.flags = make([]byte, nChunks)
		st.schemes = make([]byte, nChunks)
		st.enc = make([][]byte, nChunks)
		st.pos = make([]int, nChunks)
		st.crcs = make([]uint32, nChunks)
		st.states = make([]ChunkState, nChunks)
		st.errs = make([]error, nChunks)
	}
	st.sizes = st.sizes[:nChunks]
	st.flags = st.flags[:nChunks]
	st.schemes = st.schemes[:nChunks]
	st.enc = st.enc[:nChunks]
	st.pos = st.pos[:nChunks]
	st.crcs = st.crcs[:nChunks]
	st.states = st.states[:nChunks]
	st.errs = st.errs[:nChunks]
	for cap(st.arenas) < nWorkers {
		st.arenas = append(st.arenas[:cap(st.arenas)], arena{})
	}
	st.arenas = st.arenas[:nWorkers]
	return st
}

func putEngineState(st *engineState) { enginePool.Put(st) }

// arena is one worker's encode space: blocks that its chunks encode into
// back to back. A block never regrows. When the current one lacks a
// chunk's worst-case room, the worker moves on to the next, so no chunk
// is copied to make room for another. The blocks stay with the pooled
// engineState, and a warm call encodes into them again. A decode holds
// the chunks it decodes ahead of its output in them (see decode).
type arena struct {
	blocks  [][]byte
	cur     int // index of the block being filled
	in, out int // this call's input bytes consumed and encoded (or held) bytes kept
	held    []heldChunk
}

// heldChunk is chunk i decoded ahead of its output: its bytes in an
// arena block, and their offset in the output.
type heldChunk struct {
	i, at int
	dec   []byte
}

// reset readies the arena for a new call, keeping its blocks.
func (a *arena) reset() {
	for i := range a.blocks {
		a.blocks[i] = a.blocks[i][:0]
	}
	a.cur, a.in, a.out = 0, 0, 0
	a.held = a.held[:0]
}

// block returns the block the next chunk encodes into, with at least room
// bytes free: the current block, a kept block that has the room, or a new
// one. A new block holds room plus this worker's estimated remaining
// output: its share of the remaining input, rest bytes over nw workers,
// scaled by 5/4 of the ratio it has kept so far this call (by a quarter
// before it has seen a chunk). The encoded bytes a chunk keeps never
// exceed its input, so that estimate caps at the share.
func (a *arena) block(room, rest, nw int) []byte {
	for ; a.cur < len(a.blocks); a.cur++ {
		b := a.blocks[a.cur]
		if cap(b)-len(b) >= room {
			return b
		}
		if len(b) == 0 {
			break // a kept block too small for one chunk: replace it
		}
	}
	share := rest / nw
	est := share / 4
	if a.in > 0 {
		est = min(share, int(int64(share)*int64(a.out)/int64(a.in))*5/4)
	}
	b := make([]byte, 0, room+est)
	if a.cur < len(a.blocks) {
		a.blocks[a.cur] = b
	} else {
		a.blocks = append(a.blocks, b)
	}
	return b
}

// hold returns n bytes of block space for chunk i, which decodes ahead
// of its output, and records that they belong at output offset at, of an
// output end bytes long. The block estimate sees no input consumed, so a
// new block holds n plus a quarter of what the worker may hold after
// them: up to the ceiling, and no more than the rest of the output.
func (a *arena) hold(i, at, n, end int) []byte {
	b := a.block(n, min(aheadMax-a.out, end-at)-n, 1)
	dec := b[len(b) : len(b)+n : len(b)+n]
	a.blocks[a.cur] = b[:len(b)+n]
	a.out += n
	a.held = append(a.held, heldChunk{i, at, dec})
	return dec
}

// chunkRoom is the free block space a chunk of cs bytes may encode into:
// above every codec's worst-case request (RZE's, the largest, asks about
// 1.16 cs; TestChunkRoomCoversCodecs pins it), so an encode never regrows
// a block. A codec asking for more still encodes correctly; its block is
// then copied once.
func chunkRoom(cs int) int { return cs + cs/4 + 64 }

// forEachChunk hands the chunk indices 0..n-1 to nw workers, which claim
// them in increasing order from one atomic counter (the paper's dynamic
// worklist); one worker runs on the calling goroutine. fn(w, i) processes
// chunk i on worker w. Once a call returns false no worker claims another
// index, though calls already running finish. It returns how many indices
// were claimed: exactly 0..claimed-1, each processed. A call that panics
// stops the claiming too, and its panic reaches the caller once every
// worker has returned (par.Run). The hooks may be nil: lead runs on the
// calling goroutine before it claims, while the other workers already
// do, and done(w) runs on worker w after its last claim.
func forEachChunk(nw, n int, fn func(w, i int) bool, lead func(), done func(w int)) (claimed int) {
	if nw <= 1 {
		if lead != nil {
			lead()
		}
		claimed = n
		for i := 0; i < n; i++ {
			if !fn(0, i) {
				claimed = i + 1
				break
			}
		}
		if done != nil {
			done(0)
		}
		return claimed
	}
	var next atomic.Int64
	var stop atomic.Bool
	par.Run(nw, func(w int) {
		if w == 0 && lead != nil {
			lead()
		}
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			if !fn(w, i) {
				stop.Store(true)
			}
		}
		if done != nil {
			done(w)
		}
	}, func() { stop.Store(true) })
	return min(int(next.Load()), n)
}

// scatterMinBytes is the payload size below which the scatter copy runs on
// the calling goroutine; parallel memcpy only pays off once the data
// outgrows the caches.
const scatterMinBytes = 256 << 10

// CompressAppend runs codec over every chunk of src in parallel and appends
// the container to dst (which may be nil), returning the extended slice,
// with the same append-semantics ownership contract as the transforms'
// *Into APIs. algID is recorded so a decode can route to the right codec.
// Workers encode chunks into pooled per-worker arenas while computing each
// chunk's CRC32-C; the payload is then sized exactly from the recorded
// chunk sizes, chunk offsets come from a prefix-sum scan, and workers
// scatter their outputs into the payload in parallel. The bytes do not
// depend on the worker count.
func CompressAppend(dst, src []byte, algID byte, codec Codec, p Params) []byte {
	cs := p.chunkSize()
	nChunks := (len(src) + cs - 1) / cs
	nw := p.workers(nChunks)
	st := getEngineState(nChunks, nw)
	defer putEngineState(st)
	ic, hasInto := codec.(IntoCodec)
	sc, hasScheme := codec.(SchemeCodec)
	parityN := max(p.Parity, 0)
	l := layout{
		schemes:   hasScheme,
		parity:    parityN > 0,
		integrity: p.Integrity || parityN > 0,
		windowed:  p.Windowed,
	}

	for w := range st.arenas {
		st.arenas[w].reset()
	}
	room := chunkRoom(cs)
	forEachChunk(nw, nChunks, func(worker, i int) bool {
		lo := i * cs
		hi := min(lo+cs, len(src))
		chunk := src[lo:hi]
		st.crcs[i] = crc32.Checksum(chunk, crcTable)
		a := &st.arenas[worker]
		block := a.block(room, len(src)-lo, nw)
		start := len(block)
		scheme := byte(0)
		switch {
		case hasScheme:
			block, scheme = sc.ForwardSchemeInto(block, chunk)
		case hasInto:
			block = ic.ForwardInto(block, chunk)
		default:
			block = append(block, codec.Forward(chunk)...)
		}
		a.in += len(chunk)
		if encLen := len(block) - start; encLen < len(chunk) {
			st.sizes[i] = encLen
			st.flags[i] = 1
			st.schemes[i] = scheme
			st.enc[i] = block[start:len(block):len(block)]
			a.out += encLen
		} else {
			// Worst-case cap: emit the original data for chunks that do
			// not compress (scheme byte 0 = raw).
			block = block[:start]
			st.sizes[i] = len(chunk)
			st.flags[i] = 0
			st.schemes[i] = 0
			st.enc[i] = nil
		}
		a.blocks[a.cur] = block
		return true
	}, nil, nil)

	// Scan: exact payload size and every chunk's payload offset.
	total := 0
	for i, s := range st.sizes {
		st.pos[i] = total
		total += s
	}
	lastLen := len(src) - (nChunks-1)*cs
	crc := uint32(0)
	if nChunks > 0 {
		crc = combineChunkCRCs(st.crcs, cs, lastLen)
	}

	// Parity blocks are built (and their CRCs taken) before the header is
	// written because the parity CRC table lives in the checksummed metadata
	// region; the blocks themselves land after the data payload.
	if parityN > 0 {
		st.buildParity(src, cs, parityN)
	} else {
		st.parity = st.parity[:0]
		st.pcrcs = st.pcrcs[:0]
	}

	dst = slices.Grow(dst, total+len(st.parity)+len(st.sizes)*4+4*nChunks+4*len(st.pcrcs)+40)
	dst = st.appendMeta(dst, l, algID, crc, len(src), cs, parityN)

	// Parallel scatter: workers copy chunk outputs (and raw chunks straight
	// from src) to their prefix-summed payload offsets.
	payloadStart := len(dst)
	dst = growExact(dst, total)
	payload := dst[payloadStart:]
	scatterW := nw
	if total < scatterMinBytes {
		scatterW = 1
	}
	forEachChunk(scatterW, nChunks, func(_, i int) bool {
		from := st.enc[i]
		if st.flags[i] == 0 {
			lo := i * cs
			from = src[lo : lo+st.sizes[i]]
		}
		copy(payload[st.pos[i]:st.pos[i]+st.sizes[i]], from)
		return true
	}, nil, nil)
	return append(dst, st.parity...)
}

// appendMeta appends everything before a container's payload: the fixed
// header, the flags byte, the header varints, the size table and, as l
// selects them, the scheme table and the integrity tables closed by the
// metadata CRC32-C. The chunk records come from st.sizes, st.flags,
// st.schemes, st.crcs and st.pcrcs.
func (st *engineState) appendMeta(dst []byte, l layout, algID byte, crc uint32, srcLen, cs, parityN int) []byte {
	start := len(dst)
	dst = append(dst, magic[:]...)
	dst = append(dst, l.version(), algID)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	if l.hasFlagsByte() {
		dst = append(dst, l.flags())
	}
	dst = bitio.AppendUvarint(dst, uint64(srcLen))
	dst = bitio.AppendUvarint(dst, uint64(cs))
	dst = bitio.AppendUvarint(dst, uint64(len(st.sizes)))
	if l.parity {
		dst = bitio.AppendUvarint(dst, uint64(parityN))
	}
	for i, s := range st.sizes {
		dst = bitio.AppendUvarint(dst, uint64(s)<<1|uint64(st.flags[i]))
	}
	if l.schemes {
		dst = append(dst, st.schemes...)
	}
	if l.integrity {
		for _, c := range st.crcs {
			dst = binary.LittleEndian.AppendUint32(dst, c)
		}
		for _, c := range st.pcrcs {
			dst = binary.LittleEndian.AppendUint32(dst, c)
		}
		dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
	}
	return dst
}

// ChecksumOf returns the CRC32-C a container records for src.
func ChecksumOf(src []byte) uint32 { return crc32.Checksum(src, crcTable) }

// Parse validates the container layout and returns its header without
// decompressing anything. It treats data as hostile: every derived
// quantity (size-table sum, per-chunk offsets, chunk count) is validated
// against the bytes actually present before anything is allocated from it,
// so arbitrary input yields an error, never a panic or an allocation
// larger than O(len(data)).
func Parse(data []byte) (*Header, error) {
	h := new(Header)
	if err := h.parse(data, false); err != nil {
		return nil, err
	}
	return h, nil
}

// ParseSalvage is Parse for damaged containers: the metadata (header, size
// table, scheme table, and when present the integrity tables under their
// own CRC32-C) must still be intact, but a payload cut short by truncation or a
// torn write is tolerated — the missing chunks simply read as unavailable.
// Used by the degraded-decode layer and the scrub/repair tools.
func ParseSalvage(data []byte) (*Header, error) {
	h := new(Header)
	if err := h.parse(data, true); err != nil {
		return nil, err
	}
	return h, nil
}

// headerPool recycles Header records (and their entry/offset tables)
// for DecompressAppend, whose header never outlives the call.
var headerPool = sync.Pool{New: func() any { return new(Header) }}

// putHeader drops the pooled header's alias of the caller's data before
// returning it to the pool, so the pool does not retain the container.
func putHeader(h *Header) {
	h.payload = nil
	h.schemes = nil
	h.chunkCRCs = nil
	h.parityCRCs = nil
	h.parity = nil
	headerPool.Put(h)
}

// parse is Parse into an existing (possibly recycled) header, reusing its
// entry and offset tables when they are large enough. With lenient set, a
// payload (or parity region) shorter than the metadata declares is
// tolerated — salvage mode for torn containers; the metadata itself must
// always be intact and, with integrity tables, pass its own CRC32-C.
func (h *Header) parse(data []byte, lenient bool) error {
	l, err := parseLayout(data)
	if err != nil {
		return err
	}
	h.layout = l
	h.Version = l.version()
	h.Algorithm = data[5]
	h.CRC = binary.LittleEndian.Uint32(data[6:])
	h.ParityGroup = 0
	f, pos, err := headerFields(data, l)
	if err != nil {
		return err
	}
	h.OriginalLen, h.ChunkSize, h.ChunkCount = f[0], f[1], f[2]
	if l.parity {
		v, n := bitio.Uvarint(data[pos:])
		if n == 0 || v == 0 || v > uint64(1)<<32 {
			return fmt.Errorf("%w: bad parity group size", ErrFormat)
		}
		h.ParityGroup = int(v)
		pos += n
	}
	if h.ChunkSize <= 0 {
		return fmt.Errorf("%w: zero chunk size", ErrFormat)
	}
	// Rounds up without adding ChunkSize-1 first, which would overflow a
	// length that headerFields clamped to math.MaxInt.
	want := h.OriginalLen / h.ChunkSize
	if h.OriginalLen%h.ChunkSize != 0 {
		want++
	}
	if h.ChunkCount != want {
		return fmt.Errorf("%w: chunk count %d, expected %d", ErrFormat, h.ChunkCount, want)
	}
	// Every size-table entry occupies at least one byte, so a declared
	// chunk count beyond the remaining bytes is corrupt; checking first
	// keeps the entries allocation bounded by len(data).
	if h.ChunkCount > len(data)-pos {
		return fmt.Errorf("%w: %d chunks cannot fit in %d remaining bytes", ErrFormat, h.ChunkCount, len(data)-pos)
	}
	if cap(h.entries) < h.ChunkCount || cap(h.offsets) < h.ChunkCount+1 {
		h.entries = make([]uint64, h.ChunkCount)
		h.offsets = make([]int, h.ChunkCount+1)
	}
	h.entries = h.entries[:h.ChunkCount]
	h.offsets = h.offsets[:h.ChunkCount+1]
	h.offsets[0] = 0
	// Accumulate the size table in uint64 and bound every entry and the
	// running total by the container length, so no crafted entry sequence
	// can overflow int and sneak past the payload-length equality check.
	// A salvage parse must accept sizes beyond the (torn) container, so it
	// bounds them by the varint cap instead: offsets stay far from int
	// overflow, and chunks past the available bytes simply read as
	// unavailable.
	limit := uint64(len(data))
	if lenient {
		limit = uint64(1) << 56
	}
	var total uint64
	for i := range h.entries {
		v, n := bitio.Uvarint(data[pos:])
		if n == 0 {
			return fmt.Errorf("%w: bad size table", ErrFormat)
		}
		size := v >> 1
		if size > limit || total+size > limit {
			return fmt.Errorf("%w: size table exceeds container length", ErrFormat)
		}
		h.entries[i] = v
		total += size
		h.offsets[i+1] = int(total)
		pos += n
	}
	h.schemes = nil
	h.chunkCRCs = nil
	h.parityCRCs = nil
	h.parity = nil
	if l.schemes {
		// The scheme table is one byte per chunk between the size table and
		// the payload. Its presence is checked before the payload-length
		// equality so a truncated table fails with its own error, and the
		// raw flag must agree with scheme byte 0 in both directions — a raw
		// chunk bypasses the codec entirely, so a non-raw scheme on it (or a
		// raw scheme on a compressed chunk) could route bytes to the wrong
		// decoder.
		if len(data)-pos < h.ChunkCount {
			return fmt.Errorf("%w: truncated scheme table (%d chunks, %d bytes left)", ErrFormat, h.ChunkCount, len(data)-pos)
		}
		h.schemes = data[pos : pos+h.ChunkCount]
		pos += h.ChunkCount
		for i, e := range h.entries {
			if raw, scheme := e&1 == 0, h.schemes[i]; raw != (scheme == 0) {
				return fmt.Errorf("%w: chunk %d raw flag %v conflicts with scheme %d", ErrFormat, i, raw, scheme)
			}
		}
	}
	if l.integrity {
		// Integrity tables: the per-chunk CRC32-C table, the per-group
		// parity CRC table, then a metadata CRC32-C covering every byte so
		// far. The metadata CRC is what makes the rest trustworthy — a
		// flipped bit in the size table, scheme table, or CRC tables is
		// detected here as localized header corruption instead of decoding
		// through garbage offsets.
		pc := h.parityGroups()
		need := 4*h.ChunkCount + 4*pc + 4
		if len(data)-pos < need {
			return fmt.Errorf("%w: truncated integrity tables (%d bytes left, need %d)", ErrFormat, len(data)-pos, need)
		}
		h.chunkCRCs = data[pos : pos+4*h.ChunkCount]
		pos += 4 * h.ChunkCount
		if pc > 0 {
			h.parityCRCs = data[pos : pos+4*pc]
			pos += 4 * pc
		}
		stored := binary.LittleEndian.Uint32(data[pos:])
		if got := crc32.Checksum(data[:pos], crcTable); got != stored {
			return fmt.Errorf("%w: got %08x, header says %08x", ErrHeaderChecksum, got, stored)
		}
		pos += 4
	}
	parityTotal := uint64(h.ParityPayloadLen())
	switch avail := uint64(len(data) - pos); {
	case avail == total+parityTotal:
		// Complete container.
	case lenient && avail < total+parityTotal:
		// Torn container: payload and/or parity region cut short. The
		// decode layer checks availability chunk by chunk.
	case avail < total+parityTotal:
		return fmt.Errorf("%w: payload is %d bytes, size table says %d", ErrFormat, avail, total+parityTotal)
	default:
		return fmt.Errorf("%w: %d payload bytes, size table says %d", ErrFormat, avail, total+parityTotal)
	}
	dataEnd := pos + int(total)
	if dataEnd > len(data) {
		dataEnd = len(data)
	}
	h.payload = data[pos:dataEnd]
	h.parity = data[dataEnd:]
	return nil
}

// headerFields reads the three varints after the fixed header and flags
// byte: the original length, the chunk size and the chunk count. It
// returns them and the position after them. Each value is clamped to
// math.MaxInt, so on 32-bit platforms an oversized declared length stays
// oversized (and fails the budget and chunk-count checks) instead of
// wrapping.
func headerFields(data []byte, l layout) (f [3]int, pos int, err error) {
	pos = 10
	if l.hasFlagsByte() {
		pos = 11
	}
	for k := range f {
		v, n := bitio.Uvarint(data[pos:])
		if n == 0 || v > uint64(1)<<56 {
			return f, 0, fmt.Errorf("%w: bad header varint", ErrFormat)
		}
		f[k] = int(min(v, math.MaxInt))
		pos += n
	}
	return f, pos, nil
}

// DeclaredSize reads a container's declared decoded length and chunk
// count from its header without parsing the tables, so a caller can size
// a decode's worker count before running it. The decode itself validates
// both.
func DeclaredSize(data []byte) (length, chunks int, err error) {
	l, err := parseLayout(data)
	if err != nil {
		return 0, 0, err
	}
	f, _, err := headerFields(data, l)
	return f[0], f[2], err
}

// CompressedPayloadLen reports the concatenated chunk bytes (excluding the
// header and size table), for ratio accounting.
func (h *Header) CompressedPayloadLen() int { return len(h.payload) }

// ErrBudget reports a container whose declared output exceeds the caller's
// decode budget. The allocation is refused, not attempted.
var ErrBudget = errors.New("container: declared output exceeds decode budget")

// schemeCodecFor validates the container's scheme table against the codec's
// routing capability: a container carrying a scheme table can only decode
// through a SchemeCodec, and a SchemeCodec can only decode containers that
// record schemes to route by. It returns the scheme router to use, nil for
// the fixed-pipeline path.
func (h *Header) schemeCodecFor(codec Codec) (SchemeCodec, error) {
	sc, ok := codec.(SchemeCodec)
	if h.schemes != nil {
		if !ok {
			return nil, fmt.Errorf("%w: v%d container's algorithm %d does not route per-chunk schemes", ErrFormat, h.Version, h.Algorithm)
		}
		return sc, nil
	}
	if ok {
		return nil, fmt.Errorf("%w: v%d container carries no scheme table for algorithm %d", ErrFormat, h.Version, h.Algorithm)
	}
	return nil, nil
}

// DecompressAppend reverses CompressAppend, appending the reconstructed
// bytes to dst (which may be nil) and returning the extended slice, with
// the same append-semantics ownership contract as the transforms' *Into
// APIs. The codec must match the one recorded under the container's
// algorithm ID (the caller routes via h.Algorithm). The output allocation
// is validated against p's decode budget before it is made, and every
// chunk decodes under a budget equal to its known size, so corrupt input
// fails with an error instead of exhausting memory.
// Chunks decode directly into their final position in the pre-sized
// output. A container with integrity tables verifies every chunk against
// its stored CRC32-C and transparently repairs single-chunk-per-group
// damage from parity; a chunk lost beyond that is a typed ErrChunkCorrupt.
// A failed decode names the lowest failing chunk.
func DecompressAppend(dst []byte, data []byte, codec Codec, p Params) ([]byte, error) {
	return decompress(dst, data, codec, p, nil, nil)
}

// DecompressFollow is DecompressAppend with a partial mode and a follower.
//
// With partial set it is the degraded-decode entry point: it decodes as
// much of a (possibly damaged) container as it can, verifying chunk by
// chunk, repairing from parity where possible, and zero-filling what it
// cannot recover. It returns the decoded bytes together with a per-chunk
// Report instead of one fatal error; the error is non-nil only when the
// container is unusable outright (unparseable or checksum-failed
// metadata, decode budget exceeded, a codec that cannot route the
// container's chunks, or an empty container whose whole-input CRC
// fails). A strict decode (partial unset) returns a nil Report.
//
// A non-nil follow lets the caller work on the output while the chunks
// still decode. Each time the chunks that decoded OK (and verified, where
// the container stores per-chunk CRCs) form a longer prefix of the
// output, follow(out, n) runs with the whole output and that prefix's
// length. One call runs at a time, on the decode worker that extended the
// prefix; the decode's other workers go on meanwhile. Chunks repaired
// from parity land after the decode, and so do the bytes of a container
// without per-chunk CRCs whose whole-input CRC then fails, so the caller
// checks the decode's outcome before trusting out.
func DecompressFollow(dst, data []byte, codec Codec, p Params, partial bool, follow func(out []byte, n int)) ([]byte, *Report, error) {
	if !partial {
		out, err := decompress(dst, data, codec, p, nil, follow)
		return out, nil, err
	}
	rep := new(Report)
	out, err := decompress(dst, data, codec, p, rep, follow)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// decompress is the preamble of both decode entry points: it parses data
// (leniently for a partial decode, rep non-nil), refuses a declared size
// beyond p's decode budget before allocating anything, and resolves the
// codec's scheme routing, then runs the decode loop.
func decompress(dst, data []byte, codec Codec, p Params, rep *Report, follow func(out []byte, n int)) ([]byte, error) {
	h := headerPool.Get().(*Header)
	defer putHeader(h)
	if err := h.parse(data, rep != nil); err != nil {
		return nil, err
	}
	if budget := p.DecodeBudget(); budget >= 0 && h.OriginalLen > budget {
		return nil, fmt.Errorf("%w: %d bytes declared, budget %d", ErrBudget, h.OriginalLen, budget)
	}
	sc, err := h.schemeCodecFor(codec)
	if err != nil {
		return nil, err
	}
	return h.decode(dst, codec, sc, p, rep, follow)
}

// decodeChunkInto decodes chunk i directly into span (its exact
// original-data range within the output). Raw chunks are copied verbatim;
// SchemeCodec and IntoCodec chunks decode in place with no intermediate
// buffer.
func (h *Header) decodeChunkInto(i int, span, enc []byte, codec Codec, ic IntoCodec, sc SchemeCodec) error {
	if h.entries[i]&1 == 0 {
		// Raw chunk: stored verbatim, so its size must equal its span.
		if len(enc) != len(span) {
			return fmt.Errorf("%w: raw chunk %d has %d bytes, want %d", ErrFormat, i, len(enc), len(span))
		}
		copy(span, enc)
		return nil
	}
	var dec []byte
	var err error
	switch {
	case sc != nil:
		dec, err = sc.InverseSchemeInto(span[:0:len(span)], enc, h.schemes[i], len(span))
	case ic != nil:
		dec, err = ic.InverseInto(span[:0:len(span)], enc, len(span))
	default:
		dec, err = inverse(codec, enc, len(span))
	}
	if err != nil {
		return fmt.Errorf("chunk %d: %w", i, err)
	}
	if len(dec) != len(span) {
		return fmt.Errorf("%w: chunk %d decoded to %d bytes, want %d", ErrFormat, i, len(dec), len(span))
	}
	if len(dec) > 0 && &dec[0] != &span[0] {
		// The codec reallocated (it outgrew the span mid-decode before
		// settling on the right size, or ignored dst); keep its bytes.
		copy(span, dec)
	}
	return nil
}

// verifyChunkInto decodes chunk i into span (its exact original-data
// range) and checks its CRC32-C against the stored one, when the container
// records one. It returns that CRC, which it takes even without a stored
// one when withCRC is set. Chunk bytes a torn container lost, and a CRC
// that differs from the stored one, are ErrChunkCorrupt; a chunk that
// fails to decode returns decodeChunkInto's error.
func (h *Header) verifyChunkInto(i int, span []byte, codec Codec, ic IntoCodec, sc SchemeCodec, withCRC bool) (uint32, error) {
	if h.offsets[i+1] > len(h.payload) {
		// Only possible on a salvage-parsed (torn) container.
		return 0, fmt.Errorf("%w: chunk %d bytes missing (torn container)", ErrChunkCorrupt, i)
	}
	if err := h.decodeChunkInto(i, span, h.payload[h.offsets[i]:h.offsets[i+1]], codec, ic, sc); err != nil {
		return 0, err
	}
	stored, ok := h.ChunkCRC(i)
	if !ok && !withCRC {
		return 0, nil
	}
	crc := crc32.Checksum(span, crcTable)
	if ok && crc != stored {
		return 0, fmt.Errorf("%w: chunk %d CRC %08x, header says %08x", ErrChunkCorrupt, i, crc, stored)
	}
	return crc, nil
}

// chunkCorrupt types a chunk failure in a container with integrity tables
// as ErrChunkCorrupt wrapping its cause, so callers can tell chunk damage
// from header damage and attempt a parity repair.
func (h *Header) chunkCorrupt(err error) error {
	if h.chunkCRCs == nil || errors.Is(err, ErrChunkCorrupt) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrChunkCorrupt, err)
}

// aheadMax is the most decoded bytes a worker holds in its arena while a
// decode's output is still being allocated; a worker at the cap waits for
// the output.
const aheadMax = 2 << 20

// aheadGrowHook, when a test sets it, runs on worker 0 just before it
// grows a decode's output, so that the other workers decode ahead.
var aheadGrowHook func()

// decode is the one chunk-decode loop, behind strict (rep nil) and partial
// decodes alike. Each worker decodes its chunks into their spans of the
// output and takes their CRC32-C on the way, checking it against the
// stored one when the container records it; the per-chunk CRCs fold into
// the whole-input CRC instead of a second pass over the output. A failed
// chunk is quarantined. With parity, or in partial mode, every chunk
// decodes and the parity groups then repair what they can.
//
// A fresh output is zeroed, and its pages faulted in, on the goroutine
// that allocates it. So when dst lacks the room and more than one worker
// runs, worker 0 grows dst while the others decode ahead: each holds its
// chunks in its arena (up to aheadMax bytes) until the output exists, then
// copies them into place and decodes straight into the output (see
// engineState.span). Claims, CRCs and chunk states are the same either
// way.
//
// A followed decode (follow non-nil, see DecompressFollow) records each
// chunk that decodes OK, and each held chunk once it is copied into
// place, and the worker that records one reports any longer prefix of
// such chunks (engineState.land).
//
// Strict mode fails on the lowest chunk left quarantined, or on a
// whole-input CRC mismatch. Partial mode fails only on the mismatch of an
// empty container; otherwise it zero-fills the quarantined chunks,
// demotes the chunks the whole-input CRC no longer vouches for to
// ChunkUnverified, and records every outcome in rep.
func (h *Header) decode(dst []byte, codec Codec, sc SchemeCodec, p Params, rep *Report, follow func(out []byte, n int)) ([]byte, error) {
	base := len(dst)
	ic, _ := codec.(IntoCodec)
	nw := p.workers(h.ChunkCount)
	st := getEngineState(h.ChunkCount, nw)
	defer func() {
		// The pool keeps no output and no follower, not even a panicked
		// decode's.
		st.dst, st.out, st.ready, st.fol.fn = nil, nil, nil, nil
		putEngineState(st)
	}()
	var lead func()
	var done func(w int)
	if nw > 1 && cap(dst)-base < h.OriginalLen {
		st.dst, st.ready = dst, make(chan struct{})
		for w := range st.arenas {
			st.arenas[w].reset()
		}
		lead = func() {
			defer close(st.ready)
			if aheadGrowHook != nil {
				aheadGrowHook()
			}
			st.dst = growExact(st.dst, h.OriginalLen)
			st.out = st.dst[base:]
		}
		done = st.flush
	} else {
		st.dst = growExact(dst, h.OriginalLen)
		st.out = st.dst[base:]
	}
	if f := &st.fol; follow != nil {
		if cap(f.landed) < h.ChunkCount {
			f.landed = make([]atomic.Uint32, h.ChunkCount)
		}
		f.landed = f.landed[:h.ChunkCount]
		clear(f.landed)
		f.fn, f.cs, f.prefix = follow, h.ChunkSize, 0
		f.busy.Store(false) // a report that panicked left it taken
	}
	states := st.states
	if rep != nil {
		rep.init(h)
		states = rep.States
	}
	// Without parity a strict decode cannot recover a failed chunk, so the
	// workers stop claiming chunks at the first failure. Claims are
	// monotone, so every chunk below that failure has still been decoded:
	// the lowest failing chunk does not depend on scheduling.
	decodeAll := rep != nil || h.ParityGroup > 0
	claimed := forEachChunk(nw, h.ChunkCount, func(w, i int) bool {
		// Workers write disjoint indices of states, st.crcs and st.errs.
		lo, hi := h.chunkSpan(i)
		span, held := st.span(w, i, lo, hi, h.OriginalLen)
		crc, err := h.verifyChunkInto(i, span, codec, ic, sc, true)
		if err != nil {
			states[i], st.errs[i] = ChunkQuarantined, err
			return decodeAll
		}
		states[i], st.crcs[i] = ChunkOK, crc
		if held {
			st.land(i, decodedOK)
		} else {
			st.land(i, landedBits)
		}
		return true
	}, lead, done)
	dst, out := st.dst, st.out
	if h.ParityGroup > 0 {
		h.repairGroups(out, states, st)
	}
	verified, lost, first := 0, 0, -1
	for i, s := range states[:claimed] {
		switch s {
		case ChunkOK:
			verified++
		case ChunkQuarantined:
			if lost == 0 {
				first = i
			}
			lost++
		}
	}
	if h.chunkCRCs != nil {
		countVerified.Add(uint64(verified))
	}
	countQuarantined.Add(uint64(lost))
	var err error
	if lost > 0 {
		err = h.chunkCorrupt(st.errs[first])
		clear(st.errs[:claimed])
	} else if got := h.wholeCRC(st.crcs); got != h.CRC {
		err = fmt.Errorf("%w: got %08x, header says %08x", ErrChecksum, got, h.CRC)
	}
	// An empty container has no chunk to carry a whole-input CRC mismatch,
	// so a partial decode fails on it as a strict one does.
	if err != nil && (rep == nil || h.ChunkCount == 0) {
		return nil, err
	}
	if rep == nil {
		return dst, nil
	}
	for i, s := range states {
		if s == ChunkQuarantined {
			lo, hi := h.chunkSpan(i)
			clear(out[lo:hi]) // failed decodes must not leak garbage
		}
	}
	// The whole-input CRC vouches for v1/v2 chunks only when every chunk
	// decoded, and for any layout only when it matches.
	if err != nil && (lost == 0 || h.chunkCRCs == nil) {
		for i, s := range states {
			if s == ChunkOK || s == ChunkRepaired {
				states[i] = ChunkUnverified
			}
		}
	}
	return dst, nil
}

// span returns where worker w decodes chunk i, which fills [lo, hi) of a
// decode's output, end bytes long: that span once the output exists, or
// else room in w's arena, where the chunk is held until it does (held is
// then true). A worker holding aheadMax bytes waits for the output
// instead. Seeing the output, a worker first copies the chunks it holds
// into place.
func (st *engineState) span(w, i, lo, hi, end int) (b []byte, held bool) {
	if st.ready != nil {
		a := &st.arenas[w]
		if a.out+hi-lo > aheadMax {
			<-st.ready
		}
		select {
		case <-st.ready:
			st.flush(w)
		default:
			return a.hold(i, lo, hi-lo, end), true
		}
	}
	return st.out[lo:hi], false
}

// flush waits for a decode's output and copies the chunks worker w holds
// into place.
func (st *engineState) flush(w int) {
	<-st.ready
	a := &st.arenas[w]
	for _, c := range a.held {
		copy(st.out[c.at:], c.dec)
		st.land(c.i, inPlace)
	}
	a.held = a.held[:0]
}

// wholeCRC folds the per-chunk CRC32-Cs of a fully decoded container into
// the CRC32-C of its whole original input.
func (h *Header) wholeCRC(crcs []uint32) uint32 {
	if h.ChunkCount == 0 {
		return 0
	}
	return combineChunkCRCs(crcs, h.ChunkSize, h.OriginalLen-(h.ChunkCount-1)*h.ChunkSize)
}

// ChunkPayload returns the stored bytes of chunk i and whether the chunk
// is raw (uncompressed fallback). The slice aliases the parsed container.
// O(1): the offsets were prefix-summed once in Parse.
func (h *Header) ChunkPayload(i int) ([]byte, bool, error) {
	if i < 0 || i >= h.ChunkCount {
		return nil, false, fmt.Errorf("%w: chunk %d of %d", ErrFormat, i, h.ChunkCount)
	}
	if h.offsets[i+1] > len(h.payload) {
		// Only possible on a salvage-parsed (torn) container.
		return nil, false, fmt.Errorf("%w: chunk %d bytes missing (torn container)", ErrChunkCorrupt, i)
	}
	return h.payload[h.offsets[i]:h.offsets[i+1]], h.entries[i]&1 == 0, nil
}

// DecompressChunkLimit decodes a single chunk of a parsed container,
// enabling random access without touching the rest of the block (each
// chunk is independent by construction). The chunk's decoded bytes cover
// [i*ChunkSize, min((i+1)*ChunkSize, OriginalLen)) of the original data. A
// chunk whose span exceeds maxDecoded bytes is refused before any
// allocation (maxDecoded < 0 means no bound). No whole-data checksum can be
// verified on a single chunk; containers with integrity tables check the
// chunk's own CRC32-C, others need DecompressAppend for end-to-end integrity.
// O(1) chunk lookup via the offsets cached in Parse.
func (h *Header) DecompressChunkLimit(i int, codec Codec, maxDecoded int) ([]byte, error) {
	if i < 0 || i >= h.ChunkCount {
		return nil, fmt.Errorf("%w: chunk %d of %d", ErrFormat, i, h.ChunkCount)
	}
	lo, hi := h.chunkSpan(i)
	if maxDecoded >= 0 && hi-lo > maxDecoded {
		return nil, fmt.Errorf("%w: chunk %d spans %d bytes, budget %d", ErrBudget, i, hi-lo, maxDecoded)
	}
	sc, err := h.schemeCodecFor(codec)
	if err != nil {
		return nil, err
	}
	ic, _ := codec.(IntoCodec)
	dec := make([]byte, hi-lo)
	// Every random-access read of a container with integrity tables is
	// end-to-end verified against the stored per-chunk CRC — including raw
	// chunks, which other containers cannot check outside a whole decode.
	if _, err := h.verifyChunkInto(i, dec, codec, ic, sc, false); err != nil {
		return nil, h.chunkCorrupt(err)
	}
	if h.chunkCRCs != nil {
		countVerified.Add(1)
	}
	return dec, nil
}

// AlgorithmID extracts the algorithm byte without a full parse.
func AlgorithmID(data []byte) (byte, error) {
	if len(data) < 6 || [4]byte(data[:4]) != magic {
		return 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	return data[5], nil
}
