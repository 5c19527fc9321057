//go:build ignore

// Command gen regenerates the corrupt-container corpus in this directory.
// Every file is derived deterministically from a valid container so the
// corpus stays reproducible:
//
//	go run testdata/corrupt/gen.go [dir]
//
// It writes into dir (default testdata/corrupt); `make corpus-check`
// regenerates into a temporary directory and compares byte for byte.
//
// Each file is a regression seed for a specific decoder hardening fix; see
// README.md here and the "Decoder safety guarantees" section of FORMAT.md.
package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"fpcompress"
	"fpcompress/internal/bitio"
	"fpcompress/internal/container"
)

// chunkOffsets parses a valid container and returns the byte offset of
// every chunk boundary in its payload: offs[0] is the end of the metadata
// (the payload start), offs[i] the start of chunk i, and the last entry
// the end of the data payload, where the parity region (if any) begins.
func chunkOffsets(blob []byte) (*container.Header, []int) {
	h, err := container.Parse(blob)
	if err != nil {
		panic(err)
	}
	pos := len(blob) - h.CompressedPayloadLen() - h.ParityPayloadLen()
	offs := []int{pos}
	for i := 0; i < h.ChunkCount; i++ {
		pos += h.ChunkStoredLen(i)
		offs = append(offs, pos)
	}
	return h, offs
}

func main() {
	dir := "testdata/corrupt"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}

	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = 300 + math.Sin(float64(i)/25)
	}
	valid, err := fpcompress.Compress(fpcompress.DPratio, fpcompress.Float64Bytes(vals), nil)
	if err != nil {
		panic(err)
	}

	clone := func(b []byte) []byte { return append([]byte(nil), b...) }

	files := map[string][]byte{}

	// Header damage.
	files["truncated-header.bin"] = clone(valid[:8])
	bm := clone(valid)
	bm[0] ^= 0xFF
	files["bad-magic.bin"] = bm
	bv := clone(valid)
	bv[4] = 9
	files["bad-version.bin"] = bv

	// Payload/size-table inconsistency.
	files["truncated-payload.bin"] = clone(valid[:len(valid)-3])
	files["trailing-garbage.bin"] = append(clone(valid), 0xDE, 0xAD, 0xBE, 0xEF, 0x00)

	// Bit rot inside a compressed chunk: either the transform rejects it or
	// the CRC32-C catches it; both must be errors, not panics.
	cr := clone(valid)
	cr[len(cr)/2] ^= 0xFF
	files["payload-bitflip.bin"] = cr

	// A flipped stored checksum over intact payload: decodes fully, then
	// fails the CRC32-C comparison.
	cm := clone(valid)
	cm[6] ^= 0xFF
	files["crc-mismatch.bin"] = cm

	// hand assembles a container with full control of the declared fields;
	// algorithm ID 1 (SPspeed) so decoding reaches past codec routing.
	raw := func(originalLen, chunkSize, chunkCount uint64, entries []uint64, payload []byte) []byte {
		out := []byte{'F', 'P', 'C', 'Z', 1, 1, 0, 0, 0, 0}
		out = bitio.AppendUvarint(out, originalLen)
		out = bitio.AppendUvarint(out, chunkSize)
		out = bitio.AppendUvarint(out, chunkCount)
		for _, e := range entries {
			out = bitio.AppendUvarint(out, e)
		}
		return append(out, payload...)
	}

	// A few bytes claiming a 1 TiB output: the decode-budget gate must
	// refuse the allocation (this was the original OOM repro).
	files["huge-original-len.bin"] = raw(1<<40, 1<<40, 1, []uint64{4<<1 | 1}, []byte{1, 2, 3, 4})

	// Declared chunk count far beyond the container's bytes: must be
	// rejected before the size-table allocation.
	files["huge-chunk-count.bin"] = raw(1<<40, 256, 1<<32, nil, nil)

	// Size-table entries whose sum wraps int64: the overflow-safe
	// accumulation must reject them (this was the negative-offset repro).
	files["size-table-overflow.bin"] = raw(512, 256, 2,
		[]uint64{(1 << 62) << 1, (1 << 62) << 1}, make([]byte, 16))

	// A structurally valid container whose single "compressed" chunk is a
	// uvarint declaring a huge transform decode length: the per-chunk
	// budget must refuse it before allocating.
	lie := bitio.AppendUvarint(nil, 1<<40)
	lie = append(lie, 0xFF, 0xFF)
	files["transform-declen-lie.bin"] = raw(256, 256, 1,
		[]uint64{uint64(len(lie))<<1 | 1}, lie)

	// Container v2 (per-chunk scheme table) seeds, derived from valid
	// Auto32/Auto64 containers. schemeOffset finds the first scheme-table
	// byte: the table is the last metadata section, one byte per chunk. It
	// is not covered by the payload CRC, so a mutated scheme byte survives
	// parsing and must be caught at routing.
	schemeOffset := func(blob []byte) int {
		h, offs := chunkOffsets(blob)
		return offs[0] - h.ChunkCount
	}

	auto64, err := fpcompress.Compress(fpcompress.Auto64, fpcompress.Float64Bytes(vals), nil)
	if err != nil {
		panic(err)
	}
	// A scheme ID no pipeline answers to: typed routing error, no panic.
	su := clone(auto64)
	su[schemeOffset(su)] = 99
	files["scheme-unknown-id.bin"] = su

	vals32 := make([]float32, 8192)
	for i := range vals32 {
		vals32[i] = float32(300 + math.Sin(float64(i)/25))
	}
	auto32, err := fpcompress.CompressFloat32s(fpcompress.Auto32, vals32, nil)
	if err != nil {
		panic(err)
	}
	// A 64-bit pipeline scheme (3 = DPspeed's chunk pipeline) recorded in a
	// 32-bit container: the word-size check must refuse the route.
	sw := clone(auto32)
	sw[schemeOffset(sw)] = 3
	files["scheme-word-mismatch.bin"] = sw

	// Hand-assembled v2 layouts (algorithm ID 8 = Auto64 so decoding
	// reaches the real scheme router).
	rawV2 := func(originalLen, chunkSize, chunkCount uint64, entries []uint64, schemes, payload []byte) []byte {
		out := []byte{'F', 'P', 'C', 'Z', 2, 8, 0, 0, 0, 0}
		out = bitio.AppendUvarint(out, originalLen)
		out = bitio.AppendUvarint(out, chunkSize)
		out = bitio.AppendUvarint(out, chunkCount)
		for _, e := range entries {
			out = bitio.AppendUvarint(out, e)
		}
		out = append(out, schemes...)
		return append(out, payload...)
	}

	// Two declared chunks but a one-byte scheme table: rejected with the
	// truncated-scheme-table error before any payload work.
	files["scheme-table-truncated.bin"] = rawV2(512, 256, 2,
		[]uint64{100<<1 | 1, 100<<1 | 1}, []byte{3}, make([]byte, 200))

	// A raw (uncompressed) chunk carrying a non-raw scheme byte: the flag
	// and the scheme table disagree, so the route is ambiguous — reject.
	files["scheme-raw-conflict.bin"] = rawV2(256, 256, 1,
		[]uint64{256 << 1}, []byte{3}, make([]byte, 256))

	// Container v3 (self-healing layout) seeds: per-chunk CRCs, checksummed
	// metadata, optional XOR parity. The mutations below take their offsets
	// from chunkOffsets: the metadata end (one past the stored metadata
	// CRC), the payload chunk offsets, and the start of the parity region.
	// 32 KiB of data in 4 KiB chunks: 8 chunks, 2 parity groups of 4.
	v3opts := func(parity int) *fpcompress.Options {
		return &fpcompress.Options{ChunkSize: 4096, Integrity: true, Parity: parity}
	}
	v3i, err := fpcompress.CompressFloat32s(fpcompress.SPspeed, vals32, v3opts(0))
	if err != nil {
		panic(err)
	}
	v3p, err := fpcompress.CompressFloat32s(fpcompress.SPspeed, vals32, v3opts(4))
	if err != nil {
		panic(err)
	}

	// A flipped payload byte with no parity: the per-chunk CRC localizes it
	// (strict decode fails with the typed chunk error; partial decode
	// quarantines exactly that chunk and returns the rest).
	cc := clone(v3i)
	_, offs := chunkOffsets(cc)
	cc[offs[1]] ^= 0xFF
	files["v3-chunk-crc-flip.bin"] = cc

	// The same flip with parity: strict decode must SUCCEED, transparently
	// reconstructing the chunk (see selfHealingSeeds in the corpus test).
	pr := clone(v3p)
	_, offs = chunkOffsets(pr)
	pr[offs[2]] ^= 0xFF
	files["v3-parity-repairable.bin"] = pr

	// A flipped byte inside a parity block while the data is clean: benign
	// (strict decode succeeds without touching parity).
	pc := clone(v3p)
	_, offs = chunkOffsets(pc)
	pc[offs[len(offs)-1]] ^= 0xFF
	files["v3-parity-chunk-corrupt.bin"] = pc

	// A torn tail: the writer died mid-payload, taking part of the last
	// chunk and all parity with it. Strict parse rejects; salvage parse
	// accepts and partial decode quarantines the missing range.
	tt := clone(v3p)
	_, offs = chunkOffsets(tt)
	files["v3-torn-tail.bin"] = tt[:offs[len(offs)-1]-5]

	// A flipped bit in the stored metadata CRC: nothing after the header
	// can be trusted, so even partial decode refuses (typed header error).
	mc := clone(v3i)
	_, offs = chunkOffsets(mc)
	mc[offs[0]-1] ^= 0x01
	files["v3-meta-crc-flip.bin"] = mc

	// A mutated scheme byte in a v3 auto container: unlike v2 (where the
	// scheme table is unprotected and the mutation must be caught at
	// routing), v3's metadata CRC covers the table and rejects up front.
	auto32v3, err := fpcompress.CompressFloat32s(fpcompress.Auto32, vals32, v3opts(0))
	if err != nil {
		panic(err)
	}
	// Without parity the scheme table is followed by one 4-byte CRC per
	// chunk and the 4-byte metadata CRC.
	sv := clone(auto32v3)
	h, offs := chunkOffsets(sv)
	sv[offs[0]-4-5*h.ChunkCount] ^= 0xFF // first scheme byte
	files["v3-scheme-bitflip.bin"] = sv

	// Container v4 (windowed FCM) seeds: v4 negotiates the window through
	// the flags byte, so flag damage must be caught at parse time.
	wopts := &fpcompress.Options{WindowedFCM: true}
	w64, err := fpcompress.Compress(fpcompress.DPratio, fpcompress.Float64Bytes(vals), wopts)
	if err != nil {
		panic(err)
	}
	wauto, err := fpcompress.Compress(fpcompress.Auto64, fpcompress.Float64Bytes(vals), wopts)
	if err != nil {
		panic(err)
	}

	// A v4 container whose windowed flag is cleared: v4 exists only to
	// carry that flag, so the version/flag combination is contradictory
	// and must be rejected up front (no guessing which codec applies).
	nw := clone(w64)
	nw[10] &^= 1 << 2
	files["v4-no-window-flag.bin"] = nw

	// A v4 header cut off right before its mandatory flags byte: the
	// window negotiation is unreadable, so parsing must fail rather than
	// fall back to whole-input semantics.
	files["v4-flag-truncated.bin"] = clone(w64[:10])

	// A windowed Auto64 container with the scheme-table flag cleared while
	// the table bytes remain in the stream: the flag and the layout
	// disagree, so the size table walks into scheme bytes and the payload
	// length no longer adds up — reject, never panic.
	sc := clone(wauto)
	if sc[10]&1 == 0 {
		panic("expected a scheme table in the windowed auto container")
	}
	sc[10] &^= 1
	files["v4-scheme-flag-conflict.bin"] = sc

	// v4 declares parity without integrity: parity groups are only
	// addressable through the per-chunk CRC tables, so the combination is
	// structurally meaningless and must be refused.
	pf := clone(w64)
	pf[10] |= 1 << 1
	files["v4-parity-no-integrity.bin"] = pf

	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("%-28s %5d bytes\n", name, len(data))
	}
}
