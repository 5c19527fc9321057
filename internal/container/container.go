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
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fpcompress/internal/bitio"
)

// DefaultChunkSize is 16 kB, chosen by the paper so two chunk buffers fit in
// a GPU's shared memory and a CPU's L1 data cache.
const DefaultChunkSize = 16384

// magic identifies the container format.
var magic = [4]byte{'F', 'P', 'C', 'Z'}

// formatVersion is the layout written for plain codecs; formatVersionV2
// adds the per-chunk scheme table emitted for SchemeCodecs (auto mode).
// Version 2 generalizes version 1's single raw-fallback flag: where v1
// records only compressed-or-raw per chunk, v2 also records *which*
// pipeline encoded each chunk, so one container can mix pipelines and
// decode routes per chunk. Fixed algorithms keep writing version 1
// byte-identically.
//
// formatVersionV3 is the opt-in self-healing layout (Params.Integrity /
// Params.Parity): a flags byte, the per-chunk CRC32-C table the engine
// already computes, optional XOR parity groups, and a metadata CRC32-C
// covering everything before the payload (closing the v1/v2 gap where the
// size and scheme tables sat outside any checksum). See integrity.go.
//
// formatVersionV4 is the windowed layout (Params.Windowed): the same flags
// byte v3 introduced is always present and carries flagWindowed, recording
// that every chunk was encoded with per-chunk (window-reset) predictor
// state — so chunks decode independently even for algorithms whose default
// mode runs a whole-input pre-stage. v4 makes the integrity tables
// explicitly flagged (flagIntegrity) rather than implied by the version,
// so a windowed container can be plain, scheme-routed, self-healing, or
// any combination. Old decoders reject v4 by version — strict negotiation,
// exactly like the v2 and v3 introductions — and this decoder rejects a v4
// container without flagWindowed: v4 is emitted only for windowed data, so
// the combination is corrupt.
const (
	formatVersion   = 1
	formatVersionV2 = 2
	formatVersionV3 = 3
	formatVersionV4 = 4
)

// Header flag bits (v3 introduced the flags byte; v4 extends it). Unknown
// bits are rejected per version: they would change the layout in ways the
// decoder cannot skip.
const (
	flagSchemes     byte = 1 << 0 // per-chunk scheme table present
	flagParity      byte = 1 << 1 // XOR parity groups present
	flagWindowed    byte = 1 << 2 // v4: per-chunk (window-reset) predictor state
	flagIntegrity   byte = 1 << 3 // v4: integrity tables present (implied by version in v3)
	flagKnownMask        = flagSchemes | flagParity
	flagKnownMaskV4      = flagSchemes | flagParity | flagWindowed | flagIntegrity
)

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
// The engine emits container format v2 for these codecs, storing one
// scheme byte per chunk after the size table; scheme byte 0 is reserved
// by the container for raw-fallback chunks, which never reach the codec.
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
// zero: the most bytes Decompress will allocate for the reconstructed
// output of one container. It matches the streaming layer's default frame
// cap so a single malformed header cannot OOM a worker.
const DefaultMaxDecoded = 64 << 20

// Params tunes the engine.
type Params struct {
	// ChunkSize is the chunk granularity in bytes; 0 means DefaultChunkSize.
	ChunkSize int
	// Parallelism is the worker count; 0 means GOMAXPROCS.
	Parallelism int
	// MaxDecoded bounds the bytes Decompress will allocate for one
	// container's output, validated against the header's declared original
	// length before any allocation. 0 means DefaultMaxDecoded; negative
	// means no bound (trusted input only).
	MaxDecoded int
	// Integrity selects container format v3: the per-chunk CRC32-C table is
	// stored (instead of folded into the whole-input CRC and discarded) and
	// the header, size table, and scheme table are covered by their own
	// CRC32-C. Costs 4 bytes per chunk plus 5 header bytes. Implied by
	// Parity > 0.
	Integrity bool
	// Parity > 0 additionally appends one XOR parity chunk per group of
	// Parity data chunks, letting decode reconstruct any single lost or
	// corrupt chunk per group. Overhead is ~ChunkSize/Parity bytes per
	// chunk-size worth of input plus 4 bytes per group.
	Parity int
	// Windowed selects container format v4: it records (via the flags byte)
	// that every chunk was encoded with per-chunk predictor state — the
	// codec resets any cross-chunk history at each chunk boundary — so
	// chunks decode independently and random access works even for
	// algorithms whose default mode runs a whole-input pre-stage. The
	// container layer stores the flag and negotiates the version; producing
	// actually window-reset chunk encodings is the codec's contract.
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
	// Version is the container layout version (1; 2 when the container
	// carries a per-chunk scheme table; 3 for the self-healing layout; 4
	// for the windowed layout, whose flags byte selects the optional
	// tables).
	Version     byte
	Algorithm   byte
	OriginalLen int
	ChunkSize   int
	ChunkCount  int
	// CRC is the CRC32-C of the original (pre-compression) bytes; verified
	// after decompression so corruption that survives decoding is caught.
	CRC uint32
	// Flags is the v3/v4 flags byte (0 for v1/v2).
	Flags byte
	// ParityGroup is the v3 parity group size N (one XOR parity chunk per N
	// data chunks); 0 when the container carries no parity.
	ParityGroup int
	// entries[i] = compressed size <<1 | compressedFlag
	entries []uint64
	// schemes is the per-chunk scheme table (v2 always, v3 when flagged;
	// nil otherwise); it aliases the parsed container.
	schemes []byte
	// chunkCRCs is the v3 per-chunk CRC32-C table (4 LE bytes per chunk,
	// hashing each chunk's *original* bytes); nil for v1/v2. Aliases the
	// parsed container.
	chunkCRCs []byte
	// parityCRCs is the v3 per-group parity-chunk CRC32-C table (4 LE bytes
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
	// parity is the v3 parity payload region following the data payload
	// (group g's bytes occupy [g*ChunkSize, g*ChunkSize+parityLen(g))); it
	// too may be short after a salvage parse.
	parity []byte
}

// Windowed reports whether the container records per-chunk (window-reset)
// predictor state: every chunk decodes independently of its neighbors,
// even for algorithms whose default mode runs a whole-input pre-stage.
func (h *Header) Windowed() bool { return h.Flags&flagWindowed != 0 }

// hasIntegrity reports whether the container carries the integrity tables
// (per-chunk CRCs, parity CRCs, metadata CRC): always in v3, flagged in v4.
func (h *Header) hasIntegrity() bool {
	return h.Version == formatVersionV3 ||
		(h.Version >= formatVersionV4 && h.Flags&flagIntegrity != 0)
}

// IsWindowed peeks at a container's header bytes and reports whether it
// uses the windowed (per-chunk predictor state) layout, without parsing
// the tables. Callers use it to pick the matching codec mode before
// decode; the full parse still validates the flags byte.
func IsWindowed(data []byte) (bool, error) {
	if len(data) < 10 || [4]byte(data[:4]) != magic {
		return false, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if data[4] < formatVersionV4 {
		return false, nil
	}
	if len(data) < 11 {
		return false, fmt.Errorf("%w: truncated v%d header", ErrFormat, data[4])
	}
	return data[10]&flagWindowed != 0, nil
}

// ChunkScheme returns chunk i's scheme byte: 0 for raw chunks and for
// every chunk of a v1 container (whose single codec needs no routing),
// otherwise the pipeline identifier recorded in the v2 scheme table.
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

// engineState holds the per-call bookkeeping of CompressAppend and
// DecompressAppend (chunk records, per-chunk CRCs, per-worker arenas),
// recycled through a pool so the steady state allocates none of it.
type engineState struct {
	sizes   []int    // compressed (or raw) size of chunk i
	flags   []byte   // 1 = compressed, 0 = raw fallback
	schemes []byte   // chunk i's scheme byte (SchemeCodec encodes only)
	owner   []int32  // worker whose arena holds chunk i (-1 = raw, scattered from src)
	off     []int    // chunk i's offset within its owner's arena
	pos     []int    // chunk i's offset within the payload (prefix sum of sizes)
	crcs    []uint32 // CRC32-C of chunk i's original bytes
	arenas  [][]byte // per-worker append-only encode arenas
	parity  []byte   // concatenated XOR parity blocks (v3 parity encodes only)
	pcrcs   []uint32 // CRC32-C of each parity block
}

var enginePool = sync.Pool{New: func() any { return new(engineState) }}

func getEngineState(nChunks, nWorkers int) *engineState {
	st := enginePool.Get().(*engineState)
	if cap(st.sizes) < nChunks {
		st.sizes = make([]int, nChunks)
		st.flags = make([]byte, nChunks)
		st.schemes = make([]byte, nChunks)
		st.owner = make([]int32, nChunks)
		st.off = make([]int, nChunks)
		st.pos = make([]int, nChunks)
		st.crcs = make([]uint32, nChunks)
	}
	st.sizes = st.sizes[:nChunks]
	st.flags = st.flags[:nChunks]
	st.schemes = st.schemes[:nChunks]
	st.owner = st.owner[:nChunks]
	st.off = st.off[:nChunks]
	st.pos = st.pos[:nChunks]
	st.crcs = st.crcs[:nChunks]
	for cap(st.arenas) < nWorkers {
		st.arenas = append(st.arenas[:cap(st.arenas)], nil)
	}
	st.arenas = st.arenas[:nWorkers]
	return st
}

func putEngineState(st *engineState) { enginePool.Put(st) }

// scatterMinBytes is the payload size below which the scatter copy runs on
// the calling goroutine; parallel memcpy only pays off once the data
// outgrows the caches.
const scatterMinBytes = 256 << 10

// Compress runs codec over every chunk of src in parallel and assembles the
// container. algID is recorded so Decompress can route to the right codec.
func Compress(src []byte, algID byte, codec Codec, p Params) []byte {
	return CompressAppend(nil, src, algID, codec, p)
}

// CompressAppend is Compress appending the container to dst (which may be
// nil) and returning the extended slice, with the same append-semantics
// ownership contract as the transforms' *Into APIs. Workers encode chunks
// into pooled per-worker arenas while computing each chunk's CRC32-C; the
// payload is then sized exactly from the recorded chunk sizes, chunk
// offsets come from a prefix-sum scan, and workers scatter their outputs
// into the payload in parallel. The resulting bytes are identical to the
// serial Assemble path.
func CompressAppend(dst, src []byte, algID byte, codec Codec, p Params) []byte {
	cs := p.chunkSize()
	nChunks := (len(src) + cs - 1) / cs
	nw := p.workers(nChunks)
	st := getEngineState(nChunks, nw)
	defer putEngineState(st)
	ic, hasInto := codec.(IntoCodec)
	sc, hasScheme := codec.(SchemeCodec)
	parityN := p.Parity
	if parityN < 0 {
		parityN = 0
	}
	integrity := p.Integrity || parityN > 0
	version := byte(formatVersion)
	if hasScheme {
		version = formatVersionV2
	}
	var flags byte
	if integrity {
		version = formatVersionV3
		if hasScheme {
			flags |= flagSchemes
		}
		if parityN > 0 {
			flags |= flagParity
		}
	}
	if p.Windowed {
		// v4 subsumes the v2/v3 layouts: the flags byte records which
		// optional tables follow instead of the version implying them.
		version = formatVersionV4
		flags |= flagWindowed
		if hasScheme {
			flags |= flagSchemes
		}
		if integrity {
			flags |= flagIntegrity
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			arena := st.arenas[worker][:0]
			for {
				i := int(next.Add(1)) - 1
				if i >= nChunks {
					break
				}
				lo := i * cs
				hi := lo + cs
				if hi > len(src) {
					hi = len(src)
				}
				chunk := src[lo:hi]
				st.crcs[i] = crc32.Checksum(chunk, crcTable)
				start := len(arena)
				scheme := byte(0)
				switch {
				case hasScheme:
					arena, scheme = sc.ForwardSchemeInto(arena, chunk)
				case hasInto:
					arena = ic.ForwardInto(arena, chunk)
				default:
					arena = append(arena, codec.Forward(chunk)...)
				}
				if encLen := len(arena) - start; encLen < len(chunk) {
					st.sizes[i] = encLen
					st.flags[i] = 1
					st.schemes[i] = scheme
					st.owner[i] = int32(worker)
					st.off[i] = start
				} else {
					// Worst-case cap: emit the original data for chunks
					// that do not compress (scheme byte 0 = raw).
					arena = arena[:start]
					st.sizes[i] = len(chunk)
					st.flags[i] = 0
					st.schemes[i] = 0
					st.owner[i] = -1
				}
			}
			st.arenas[worker] = arena
		}(w)
	}
	wg.Wait()

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

	// Header and size table, laid out exactly as Assemble writes them (for
	// v1); a v2 container additionally carries the scheme table between the
	// size table and the payload, and a v3 container the flags byte, the
	// integrity tables, and a metadata CRC (see integrity.go).
	start := len(dst)
	dst = slices.Grow(dst, total+len(st.parity)+len(st.sizes)*4+4*nChunks+4*len(st.pcrcs)+40)
	dst = append(dst, magic[:]...)
	dst = append(dst, version, algID)
	dst = append(dst, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	if version >= formatVersionV3 {
		dst = append(dst, flags)
	}
	dst = bitio.AppendUvarint(dst, uint64(len(src)))
	dst = bitio.AppendUvarint(dst, uint64(cs))
	dst = bitio.AppendUvarint(dst, uint64(nChunks))
	if parityN > 0 {
		dst = bitio.AppendUvarint(dst, uint64(parityN))
	}
	for i, s := range st.sizes {
		dst = bitio.AppendUvarint(dst, uint64(s)<<1|uint64(st.flags[i]))
	}
	if hasScheme {
		dst = append(dst, st.schemes...)
	}
	if integrity {
		for _, c := range st.crcs {
			dst = append(dst, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		for _, c := range st.pcrcs {
			dst = append(dst, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		m := crc32.Checksum(dst[start:], crcTable)
		dst = append(dst, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}

	// Parallel scatter: workers copy chunk outputs (and raw chunks straight
	// from src) to their prefix-summed payload offsets.
	payloadStart := len(dst)
	dst = growExact(dst, total)
	payload := dst[payloadStart:]
	scatter := func(i int) {
		var from []byte
		if st.flags[i] == 0 {
			lo := i * cs
			from = src[lo : lo+st.sizes[i]]
		} else {
			a := st.arenas[st.owner[i]]
			from = a[st.off[i] : st.off[i]+st.sizes[i]]
		}
		copy(payload[st.pos[i]:st.pos[i]+st.sizes[i]], from)
	}
	if nw == 1 || total < scatterMinBytes {
		for i := 0; i < nChunks; i++ {
			scatter(i)
		}
		return append(dst, st.parity...)
	}
	next.Store(0)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nChunks {
					return
				}
				scatter(i)
			}
		}()
	}
	wg.Wait()
	return append(dst, st.parity...)
}

// Assemble builds the v1 container byte layout from already-compressed
// chunk data: header, size table, then the payload (the chunks
// concatenated in order). It is shared by the goroutine engine above and
// by the SIMT-structured kernels in internal/simt, which scatter their
// chunk outputs into the payload at offsets from a decoupled-look-back
// scan — both must produce byte-identical containers. (Scheme-routing
// codecs go through CompressAppend, which emits the v2 layout.)
func Assemble(algID byte, crc uint32, srcLen, chunkSize int, sizes []int, rawFlags []bool, payload []byte) []byte {
	out := make([]byte, 0, len(payload)+len(sizes)*3+32)
	out = append(out, magic[:]...)
	out = append(out, formatVersion, algID)
	out = append(out, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	out = bitio.AppendUvarint(out, uint64(srcLen))
	out = bitio.AppendUvarint(out, uint64(chunkSize))
	out = bitio.AppendUvarint(out, uint64(len(sizes)))
	for i, s := range sizes {
		entry := uint64(s) << 1
		if !rawFlags[i] {
			entry |= 1
		}
		out = bitio.AppendUvarint(out, entry)
	}
	return append(out, payload...)
}

// ChecksumOf exposes the container's CRC32-C for external assemblers.
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
// always be intact and, for v3, pass its own CRC32-C.
func (h *Header) parse(data []byte, lenient bool) error {
	if len(data) < 10 || [4]byte(data[:4]) != magic {
		return fmt.Errorf("%w: bad magic", ErrFormat)
	}
	switch data[4] {
	case formatVersion, formatVersionV2, formatVersionV3, formatVersionV4:
	default:
		return fmt.Errorf("%w: unsupported version %d", ErrFormat, data[4])
	}
	h.Version = data[4]
	h.Algorithm = data[5]
	h.CRC = uint32(data[6]) | uint32(data[7])<<8 | uint32(data[8])<<16 | uint32(data[9])<<24
	h.Flags = 0
	h.ParityGroup = 0
	pos := 10
	if h.Version >= formatVersionV3 {
		if len(data) < 11 {
			return fmt.Errorf("%w: truncated v%d header", ErrFormat, h.Version)
		}
		h.Flags = data[10]
		known := byte(flagKnownMask)
		if h.Version >= formatVersionV4 {
			known = flagKnownMaskV4
		}
		if h.Flags&^known != 0 {
			return fmt.Errorf("%w: unknown v%d flags %#02x", ErrFormat, h.Version, h.Flags)
		}
		if h.Version >= formatVersionV4 {
			// v4 is emitted only for windowed encodings, and its parity
			// table is keyed off the integrity flag; either inconsistency
			// means the flags byte (or version) is corrupt.
			if h.Flags&flagWindowed == 0 {
				return fmt.Errorf("%w: v4 container without windowed flag", ErrFormat)
			}
			if h.Flags&flagParity != 0 && h.Flags&flagIntegrity == 0 {
				return fmt.Errorf("%w: v4 parity flag without integrity flag", ErrFormat)
			}
		}
		pos = 11
	}
	for _, dst := range []*int{&h.OriginalLen, &h.ChunkSize, &h.ChunkCount} {
		v, n := bitio.Uvarint(data[pos:])
		if n == 0 || v > uint64(1)<<56 {
			return fmt.Errorf("%w: bad header varint", ErrFormat)
		}
		*dst = int(v)
		pos += n
	}
	if h.Flags&flagParity != 0 {
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
	want := (h.OriginalLen + h.ChunkSize - 1) / h.ChunkSize
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
	if h.Version == formatVersionV2 || h.Flags&flagSchemes != 0 {
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
	if h.hasIntegrity() {
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
		stored := uint32(data[pos]) | uint32(data[pos+1])<<8 | uint32(data[pos+2])<<16 | uint32(data[pos+3])<<24
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

// CompressedPayloadLen reports the concatenated chunk bytes (excluding the
// header and size table), for ratio accounting.
func (h *Header) CompressedPayloadLen() int { return len(h.payload) }

// ErrBudget reports a container whose declared output exceeds the caller's
// decode budget. The allocation is refused, not attempted.
var ErrBudget = errors.New("container: declared output exceeds decode budget")

// schemeCodecFor validates the container's scheme table against the codec's
// routing capability: a container carrying a scheme table (v2 always, v3
// when flagged) can only decode through a SchemeCodec, and a SchemeCodec
// can only decode containers that record schemes to route by. It returns
// the scheme router to use, nil for the fixed-pipeline path.
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

// decodeChunk decodes chunk i into its exact decoded size, routing raw
// chunks past the codec. enc must be the chunk's stored bytes. sc must be
// h.schemeCodecFor(codec)'s result.
func (h *Header) decodeChunk(i int, enc []byte, codec Codec, sc SchemeCodec) ([]byte, error) {
	lo, hi := h.chunkSpan(i)
	if h.entries[i]&1 == 0 {
		// Raw chunk: stored verbatim, so its size must equal its span.
		if len(enc) != hi-lo {
			return nil, fmt.Errorf("%w: raw chunk %d has %d bytes, want %d", ErrFormat, i, len(enc), hi-lo)
		}
		return enc, nil
	}
	var dec []byte
	var err error
	if sc != nil {
		dec, err = sc.InverseSchemeInto(nil, enc, h.schemes[i], hi-lo)
	} else {
		dec, err = inverse(codec, enc, hi-lo)
	}
	if err != nil {
		return nil, fmt.Errorf("chunk %d: %w", i, err)
	}
	if len(dec) != hi-lo {
		return nil, fmt.Errorf("%w: chunk %d decoded to %d bytes, want %d", ErrFormat, i, len(dec), hi-lo)
	}
	return dec, nil
}

// Decompress reverses Compress. The codec must match the one recorded under
// the container's algorithm ID (the caller routes via h.Algorithm). The
// output allocation is validated against p's decode budget before it is
// made, and every chunk decodes under a budget equal to its known size, so
// corrupt input fails with an error instead of exhausting memory.
func Decompress(data []byte, codec Codec, p Params) ([]byte, error) {
	return DecompressAppend(nil, data, codec, p)
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

// DecompressAppend is Decompress appending the reconstructed bytes to dst
// (which may be nil) and returning the extended slice, with the same
// append-semantics ownership contract as the transforms' *Into APIs.
// Chunks decode directly into their final position in the pre-sized
// output — no per-chunk buffer, no final copy — and each worker computes
// its chunks' CRC32-C as it goes; the per-chunk CRCs are folded into the
// whole-buffer checksum instead of a second serial pass over the output.
func DecompressAppend(dst []byte, data []byte, codec Codec, p Params) ([]byte, error) {
	h := headerPool.Get().(*Header)
	defer putHeader(h)
	if err := h.parse(data, false); err != nil {
		return nil, err
	}
	if budget := p.DecodeBudget(); budget >= 0 && h.OriginalLen > budget {
		return nil, fmt.Errorf("%w: %d bytes declared, budget %d", ErrBudget, h.OriginalLen, budget)
	}
	sc, err := h.schemeCodecFor(codec)
	if err != nil {
		return nil, err
	}
	if h.chunkCRCs != nil {
		// The self-healing layout (v3 always, v4 when flagged) verifies
		// chunk by chunk against the stored CRC table and transparently
		// repairs single-chunk-per-group damage from parity; anything
		// beyond that is a typed ErrChunkCorrupt. A plain v4 container
		// carries no integrity tables and takes the fast path below.
		rep := &Report{}
		return h.decodeResilient(dst, codec, sc, p, rep, true)
	}
	base := len(dst)
	dst = growExact(dst, h.OriginalLen)
	out := dst[base:]
	ic, _ := codec.(IntoCodec)
	nw := p.workers(h.ChunkCount)
	st := getEngineState(h.ChunkCount, nw)
	defer putEngineState(st)
	var firstErr atomic.Pointer[error]
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= h.ChunkCount || firstErr.Load() != nil {
					return
				}
				lo, hi := h.chunkSpan(i)
				span := out[lo:hi]
				if err := h.decodeChunkInto(i, span, h.payload[h.offsets[i]:h.offsets[i+1]], codec, ic, sc); err != nil {
					// Copy before publishing: taking err's own address would
					// make every iteration's err escape to the heap, even on
					// the (universal) success path.
					e := err
					firstErr.CompareAndSwap(nil, &e)
					return
				}
				st.crcs[i] = crc32.Checksum(span, crcTable)
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}
	got := uint32(0)
	if h.ChunkCount > 0 {
		got = combineChunkCRCs(st.crcs, h.ChunkSize, h.OriginalLen-(h.ChunkCount-1)*h.ChunkSize)
	}
	if got != h.CRC {
		return nil, fmt.Errorf("%w: got %08x, header says %08x", ErrChecksum, got, h.CRC)
	}
	return dst, nil
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

// DecompressChunk decodes a single chunk of a parsed container, enabling
// random access without touching the rest of the block (each chunk is
// independent by construction). The chunk's decoded bytes cover
// [i*ChunkSize, min((i+1)*ChunkSize, OriginalLen)) of the original data.
// No whole-data checksum can be verified on a single chunk; callers
// needing end-to-end integrity should use Decompress.
func (h *Header) DecompressChunk(i int, codec Codec) ([]byte, error) {
	return h.DecompressChunkLimit(i, codec, DefaultMaxDecoded)
}

// DecompressChunkLimit is DecompressChunk with an explicit decode budget:
// a chunk whose decoded span exceeds maxDecoded bytes is refused before
// any allocation (maxDecoded < 0 means no bound). O(1) chunk lookup via
// the offsets cached in Parse.
func (h *Header) DecompressChunkLimit(i int, codec Codec, maxDecoded int) ([]byte, error) {
	if i < 0 || i >= h.ChunkCount {
		return nil, fmt.Errorf("%w: chunk %d of %d", ErrFormat, i, h.ChunkCount)
	}
	lo, hi := h.chunkSpan(i)
	if maxDecoded >= 0 && hi-lo > maxDecoded {
		return nil, fmt.Errorf("%w: chunk %d spans %d bytes, budget %d", ErrBudget, i, hi-lo, maxDecoded)
	}
	if h.offsets[i+1] > len(h.payload) {
		// Only possible on a salvage-parsed (torn) container.
		return nil, fmt.Errorf("%w: chunk %d bytes missing (torn container)", ErrChunkCorrupt, i)
	}
	sc, err := h.schemeCodecFor(codec)
	if err != nil {
		return nil, err
	}
	dec, err := h.decodeChunk(i, h.payload[h.offsets[i]:h.offsets[i+1]], codec, sc)
	if err != nil {
		if h.chunkCRCs != nil {
			// v3: a chunk that fails to decode is chunk-level corruption —
			// typed so callers can distinguish it from header damage and
			// attempt a parity repair.
			return nil, fmt.Errorf("%w: %w", ErrChunkCorrupt, err)
		}
		return nil, err
	}
	if stored, ok := h.ChunkCRC(i); ok {
		// v3: every random-access read is end-to-end verified against the
		// stored per-chunk CRC — including raw chunks, which v1/v2 cannot
		// check at all outside a whole-container decode.
		if got := crc32.Checksum(dec, crcTable); got != stored {
			return nil, fmt.Errorf("%w: chunk %d CRC %08x, header says %08x", ErrChunkCorrupt, i, got, stored)
		}
		countVerified.Add(1)
	}
	if h.entries[i]&1 == 0 {
		// Raw chunks alias the container; copy so callers own the bytes.
		return append([]byte(nil), dec...), nil
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

// HeaderOverhead computes the container's own bytes (header + size table)
// for a given compressed blob; useful in ratio breakdowns.
func HeaderOverhead(data []byte) (int, error) {
	h, err := Parse(data)
	if err != nil {
		return 0, err
	}
	return len(data) - len(h.payload), nil
}
