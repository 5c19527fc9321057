package container

// This file implements the self-healing container support (format v3).
//
// v1/v2 hash the whole original input with one CRC32-C: a single flipped
// bit anywhere makes the entire container unverifiable, and the size and
// scheme tables sit outside any checksum at all. Format v3 stores the
// per-chunk CRC32-C values the engine computes anyway (v1/v2 fold them via
// crc32_combine and discard them), covers all metadata with its own
// CRC32-C, and can append XOR parity groups — one parity chunk per N data
// chunks — so any single lost or corrupt chunk per group is reconstructed
// at decode time without re-encoding anything.
//
// On top of the layout this file holds the parity repair. The degraded
// decode (DecompressFollow with partial set) runs the same decode loop as
// a strict decode (container.go's decode): it verifies chunk by chunk,
// repairs from parity where possible, quarantines (zero-fills) what it
// cannot, and reports per-chunk outcomes instead of one fatal error. One
// parity rebuild (rebuildChunk) serves the whole-container repair and the
// ranged one (DecompressChunkRepair).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// ErrHeaderChecksum reports v3 metadata (header, size table, scheme table,
// or integrity tables) whose CRC32-C does not match the stored metadata
// checksum. Nothing after the header can be trusted, so even salvage
// parsing refuses the container.
var ErrHeaderChecksum = fmt.Errorf("%w: metadata checksum mismatch", ErrFormat)

// ErrChunkCorrupt reports a chunk that failed verification and could not
// be repaired from parity. Strict decode fails with it, wrapping the
// lowest such chunk's cause; the degraded path (a partial DecompressFollow)
// quarantines instead.
var ErrChunkCorrupt = errors.New("container: chunk corrupt beyond repair")

// ChunkState is the per-chunk outcome of a verifying decode.
type ChunkState uint8

const (
	// ChunkSkipped marks a chunk a ranged read did not examine.
	ChunkSkipped ChunkState = iota
	// ChunkOK marks a chunk that decoded and verified clean.
	ChunkOK
	// ChunkRepaired marks a chunk reconstructed from its XOR parity group
	// and re-verified against its stored CRC32-C.
	ChunkRepaired
	// ChunkQuarantined marks a chunk that failed verification beyond
	// repair; its output span is zero-filled.
	ChunkQuarantined
	// ChunkUnverified marks a chunk that decoded structurally but whose
	// integrity cannot be established (v1/v2 containers whose whole-input
	// CRC is unverifiable once any other chunk is lost, or fails).
	ChunkUnverified
)

func (s ChunkState) String() string {
	switch s {
	case ChunkSkipped:
		return "skipped"
	case ChunkOK:
		return "ok"
	case ChunkRepaired:
		return "repaired"
	case ChunkQuarantined:
		return "quarantined"
	case ChunkUnverified:
		return "unverified"
	}
	return fmt.Sprintf("ChunkState(%d)", uint8(s))
}

// Report is the per-chunk outcome of a verifying (partial or ranged)
// decode, with enough header context to interpret the states.
type Report struct {
	Version     byte
	Algorithm   byte
	OriginalLen int
	ChunkSize   int
	// ParityGroup is the container's parity group size N (0: no parity).
	ParityGroup int
	// Windowed records the container's v4 windowed flag, so rewrites (fpcz
	// -repair) reproduce the same per-chunk-predictor layout.
	Windowed bool
	// Integrity records whether the container carries the integrity tables
	// (always for v3, flagged for v4) — again for faithful rewrites.
	Integrity bool
	// States has one entry per chunk.
	States []ChunkState
}

func (r *Report) init(h *Header) {
	r.Version = h.Version
	r.Algorithm = h.Algorithm
	r.OriginalLen = h.OriginalLen
	r.ChunkSize = h.ChunkSize
	r.ParityGroup = h.ParityGroup
	r.Windowed = h.Windowed()
	r.Integrity = h.layout.integrity
	if cap(r.States) < h.ChunkCount {
		r.States = make([]ChunkState, h.ChunkCount)
	}
	r.States = r.States[:h.ChunkCount]
	for i := range r.States {
		r.States[i] = ChunkSkipped
	}
}

// NewReport returns a Report for h with every chunk marked ChunkSkipped,
// ready for a ranged read to fill in the chunks it touches.
func (h *Header) NewReport() *Report {
	r := new(Report)
	r.init(h)
	return r
}

// Span returns the original-data byte range [lo,hi) chunk i covers.
func (r *Report) Span(i int) (lo, hi int) {
	lo = i * r.ChunkSize
	hi = lo + r.ChunkSize
	if hi > r.OriginalLen {
		hi = r.OriginalLen
	}
	return lo, hi
}

// ReportCounts tallies a Report's states.
type ReportCounts struct {
	OK, Repaired, Quarantined, Unverified, Skipped int
}

// Counts tallies the per-chunk states.
func (r *Report) Counts() ReportCounts {
	var c ReportCounts
	for _, s := range r.States {
		switch s {
		case ChunkOK:
			c.OK++
		case ChunkRepaired:
			c.Repaired++
		case ChunkQuarantined:
			c.Quarantined++
		case ChunkUnverified:
			c.Unverified++
		default:
			c.Skipped++
		}
	}
	return c
}

// AllOK reports whether every examined chunk is intact: none quarantined
// and none unverified (repaired chunks count as intact — their bytes
// re-verified against the stored CRC).
func (r *Report) AllOK() bool {
	for _, s := range r.States {
		if s == ChunkQuarantined || s == ChunkUnverified {
			return false
		}
	}
	return true
}

// QuarantinedRanges returns the merged original-data byte ranges covered by
// quarantined chunks; those bytes are zero-filled in the decoded output.
func (r *Report) QuarantinedRanges() [][2]int {
	var out [][2]int
	for i := 0; i < len(r.States); i++ {
		if r.States[i] != ChunkQuarantined {
			continue
		}
		lo, hi := r.Span(i)
		j := i + 1
		for j < len(r.States) && r.States[j] == ChunkQuarantined {
			_, hi = r.Span(j)
			j++
		}
		out = append(out, [2]int{lo, hi})
		i = j - 1
	}
	return out
}

// Summary renders a one-line human-readable tally.
func (r *Report) Summary() string {
	c := r.Counts()
	s := fmt.Sprintf("%d chunks: %d ok", len(r.States), c.OK)
	if c.Repaired > 0 {
		s += fmt.Sprintf(", %d repaired", c.Repaired)
	}
	if c.Quarantined > 0 {
		s += fmt.Sprintf(", %d quarantined", c.Quarantined)
	}
	if c.Unverified > 0 {
		s += fmt.Sprintf(", %d unverified", c.Unverified)
	}
	if c.Skipped > 0 {
		s += fmt.Sprintf(", %d skipped", c.Skipped)
	}
	return s
}

// Process-wide integrity event counters, exported for serving metrics
// (mirroring internal/selector's Counters idiom).
var (
	countVerified    atomic.Uint64
	countRepaired    atomic.Uint64
	countQuarantined atomic.Uint64
)

// RepairCounters is a snapshot of the process-wide integrity counters.
type RepairCounters struct {
	// Verified counts chunks checked against a stored per-chunk CRC32-C
	// (v3 decodes and random-access reads).
	Verified uint64
	// Repaired counts chunks reconstructed from XOR parity.
	Repaired uint64
	// Quarantined counts chunks lost beyond repair in degraded decodes.
	Quarantined uint64
}

// Counters returns the current process-wide integrity counters.
func Counters() RepairCounters {
	return RepairCounters{
		Verified:    countVerified.Load(),
		Repaired:    countRepaired.Load(),
		Quarantined: countQuarantined.Load(),
	}
}

// ChunkCRC returns chunk i's stored CRC32-C (of its original bytes) and
// whether the container records one (integrity tables only).
func (h *Header) ChunkCRC(i int) (uint32, bool) {
	if h.chunkCRCs == nil {
		return 0, false
	}
	return binary.LittleEndian.Uint32(h.chunkCRCs[4*i:]), true
}

// parityGroups returns the number of XOR parity groups (0 without parity).
func (h *Header) parityGroups() int {
	if h.ParityGroup <= 0 || h.ChunkCount == 0 {
		return 0
	}
	return (h.ChunkCount + h.ParityGroup - 1) / h.ParityGroup
}

// parityLen returns the stored length of group g's parity block: the span
// of the group's first chunk, which is maximal within the group (only the
// container's final chunk can be short).
func (h *Header) parityLen(g int) int {
	lo, hi := h.chunkSpan(g * h.ParityGroup)
	return hi - lo
}

// ParityPayloadLen returns the total parity bytes appended after the data
// payload (0 without parity). Every group but the last stores exactly
// ChunkSize bytes. Together with CompressedPayloadLen it locates the
// metadata/payload boundary in a complete container.
func (h *Header) ParityPayloadLen() int {
	pc := h.parityGroups()
	if pc == 0 {
		return 0
	}
	return (pc-1)*h.ChunkSize + h.parityLen(pc-1)
}

// parityBlock returns group g's stored parity bytes and whether they are
// fully present (a torn container may have lost the tail).
func (h *Header) parityBlock(g int) ([]byte, bool) {
	off := g * h.ChunkSize
	n := h.parityLen(g)
	if off+n > len(h.parity) {
		return nil, false
	}
	return h.parity[off : off+n], true
}

// parityCRC returns group g's stored parity-block CRC32-C.
func (h *Header) parityCRC(g int) uint32 {
	return binary.LittleEndian.Uint32(h.parityCRCs[4*g:])
}

// xorInto XORs src's first len(dst) bytes into dst, word at a time.
func xorInto(dst, src []byte) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// buildParity fills st.parity with one XOR parity block per group of n
// chunks of src (each block the XOR of the group's chunks, short chunks
// zero-padded) and st.pcrcs with each block's CRC32-C. Blocks are stored at
// ChunkSize stride; only the final group's block can be short.
func (st *engineState) buildParity(src []byte, cs, n int) {
	nChunks := len(st.sizes)
	if nChunks == 0 {
		st.parity = st.parity[:0]
		st.pcrcs = st.pcrcs[:0]
		return
	}
	pc := (nChunks + n - 1) / n
	lastFirst := (pc - 1) * n * cs
	lastLen := cs
	if lastFirst+cs > len(src) {
		lastLen = len(src) - lastFirst
	}
	pTotal := (pc-1)*cs + lastLen
	if cap(st.parity) < pTotal {
		st.parity = make([]byte, pTotal)
	}
	st.parity = st.parity[:pTotal]
	if cap(st.pcrcs) < pc {
		st.pcrcs = make([]uint32, pc)
	}
	st.pcrcs = st.pcrcs[:pc]
	for g := 0; g < pc; g++ {
		first := g * n
		end := min(first+n, nChunks)
		lo := first * cs
		hi := min(lo+cs, len(src))
		block := st.parity[g*cs : g*cs+(hi-lo)]
		copy(block, src[lo:hi])
		for i := first + 1; i < end; i++ {
			clo := i * cs
			chi := min(clo+cs, len(src))
			// Chunk spans within a group never exceed the first chunk's, so
			// the XOR stays inside the block.
			xorInto(block[:chi-clo], src[clo:chi])
		}
		st.pcrcs[g] = crc32.Checksum(block, crcTable)
	}
}

// rebuildChunk reconstructs chunk lost into span from its XOR parity
// group: the group's parity block, present and passing its stored CRC32-C,
// XORed with every other chunk of the group as chunk(j) supplies it. The
// result is accepted only if it matches the lost chunk's stored CRC32-C;
// otherwise span holds garbage and rebuildChunk reports false.
func (h *Header) rebuildChunk(lost int, span []byte, chunk func(j int) ([]byte, bool)) bool {
	g := lost / h.ParityGroup
	pb, ok := h.parityBlock(g)
	if !ok || crc32.Checksum(pb, crcTable) != h.parityCRC(g) {
		return false // the parity block itself is damaged
	}
	copy(span, pb)
	first := g * h.ParityGroup
	for j := first; j < min(first+h.ParityGroup, h.ChunkCount); j++ {
		if j == lost {
			continue
		}
		b, ok := chunk(j)
		if !ok {
			return false // a second loss in the group
		}
		m := min(len(b), len(span))
		xorInto(span[:m], b[:m])
	}
	stored, ok := h.ChunkCRC(lost)
	return ok && crc32.Checksum(span, crcTable) == stored
}

// repairGroups rebuilds the one quarantined chunk of every group that has
// exactly one, from the group's other chunks already decoded into out.
func (h *Header) repairGroups(out []byte, states []ChunkState, st *engineState) {
	fromOut := func(j int) ([]byte, bool) {
		lo, hi := h.chunkSpan(j)
		return out[lo:hi], true
	}
	for g := 0; g < h.parityGroups(); g++ {
		first := g * h.ParityGroup
		lost, bad := -1, 0
		for i := first; i < min(first+h.ParityGroup, h.ChunkCount); i++ {
			if states[i] == ChunkQuarantined {
				bad++
				lost = i
			}
		}
		if bad != 1 {
			continue // nothing lost, or beyond single-loss repair
		}
		lo, hi := h.chunkSpan(lost)
		if !h.rebuildChunk(lost, out[lo:hi], fromOut) {
			continue // stays quarantined
		}
		states[lost], st.errs[lost] = ChunkRepaired, nil
		st.crcs[lost], _ = h.ChunkCRC(lost)
		countRepaired.Add(1)
	}
}

// DecompressChunkRepair is DecompressChunkLimit for damaged containers: on
// chunk-level corruption it attempts an XOR-parity reconstruction (decoding
// and verifying the rest of the group) before giving up. It reports how the
// bytes were obtained; on failure the returned state is ChunkQuarantined
// and the original decode error is returned. Fatal conditions (bad index,
// budget exceeded) return the error with state ChunkSkipped.
func (h *Header) DecompressChunkRepair(i int, codec Codec, maxDecoded int) ([]byte, ChunkState, error) {
	dec, err := h.DecompressChunkLimit(i, codec, maxDecoded)
	if err == nil {
		return dec, ChunkOK, nil
	}
	if i < 0 || i >= h.ChunkCount || errors.Is(err, ErrBudget) {
		return nil, ChunkSkipped, err
	}
	if h.ParityGroup > 0 {
		lo, hi := h.chunkSpan(i)
		span := make([]byte, hi-lo)
		if h.rebuildChunk(i, span, func(j int) ([]byte, bool) {
			b, err := h.DecompressChunkLimit(j, codec, maxDecoded)
			return b, err == nil
		}) {
			countRepaired.Add(1)
			return span, ChunkRepaired, nil
		}
	}
	countQuarantined.Add(1)
	return nil, ChunkQuarantined, err
}
