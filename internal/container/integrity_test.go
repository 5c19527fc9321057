package container

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// integrityTestSrc builds multi-chunk data mixing compressible (zero-tail)
// and incompressible (raw-fallback) chunks.
func integrityTestSrc(chunkSize, chunks int) []byte {
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 0, chunkSize*chunks)
	for i := 0; i < chunks; i++ {
		chunk := make([]byte, chunkSize)
		if i%3 == 2 {
			rng.Read(chunk) // incompressible: raw fallback
		} else {
			rng.Read(chunk[:chunkSize/4]) // zero tail: compresses
		}
		src = append(src, chunk...)
	}
	// Short final chunk.
	return src[:len(src)-chunkSize/3]
}

// chunkStoredRange locates chunk i's stored bytes within the blob.
func chunkStoredRange(t *testing.T, blob []byte, i int) (lo, hi int) {
	t.Helper()
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	start := len(blob) - len(h.parity) - len(h.payload)
	return start + h.offsets[i], start + h.offsets[i+1]
}

// corruptChunk flips every stored byte of chunk i.
func corruptChunk(t *testing.T, blob []byte, i int) {
	t.Helper()
	lo, hi := chunkStoredRange(t, blob, i)
	for j := lo; j < hi; j++ {
		blob[j] ^= 0xFF
	}
}

func TestV3RoundTrip(t *testing.T) {
	src := integrityTestSrc(128, 10)
	for _, tc := range []struct {
		name  string
		codec Codec
		p     Params
	}{
		{"integrity", shrinkCodec{}, Params{ChunkSize: 128, Integrity: true}},
		{"parity", shrinkCodec{}, Params{ChunkSize: 128, Parity: 3}},
		{"scheme-integrity", schemeTestCodec{}, Params{ChunkSize: 128, Integrity: true}},
		{"scheme-parity", schemeTestCodec{}, Params{ChunkSize: 128, Parity: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := CompressAppend(nil, src, 9, tc.codec, tc.p)
			h, err := Parse(blob)
			if err != nil {
				t.Fatal(err)
			}
			if h.Version != 3 {
				t.Fatalf("version %d, want 3", h.Version)
			}
			if got := h.ParityGroup; got != max(tc.p.Parity, 0) {
				t.Fatalf("parity group %d, want %d", got, tc.p.Parity)
			}
			if _, ok := h.ChunkCRC(0); !ok {
				t.Fatal("v3 header reports no chunk CRCs")
			}
			dec, err := DecompressAppend(nil, blob, tc.codec, Params{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatal("v3 round trip mismatch")
			}
			// A clean container decodes partially with every chunk OK and
			// identical bytes.
			pdec, rep, err := DecompressFollow(nil, blob, tc.codec, Params{}, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pdec, src) {
				t.Fatal("partial decode of clean container mismatch")
			}
			c := rep.Counts()
			if c.OK != h.ChunkCount || !rep.AllOK() {
				t.Fatalf("clean container report %s", rep.Summary())
			}
		})
	}
}

// TestV3ParityRepair pins the headline acceptance property: one corrupt
// chunk in every parity group round-trips byte-identically after repair,
// through both the strict (self-healing) and the partial path.
func TestV3ParityRepair(t *testing.T) {
	src := integrityTestSrc(128, 10)
	const parity = 3
	blob := CompressAppend(nil, src, 9, shrinkCodec{}, Params{ChunkSize: 128, Parity: parity})
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < h.parityGroups(); g++ {
		victim := g*parity + g%parity
		if victim >= h.ChunkCount {
			victim = h.ChunkCount - 1
		}
		corruptChunk(t, blob, victim)
	}
	dec, err := DecompressAppend(nil, blob, shrinkCodec{}, Params{})
	if err != nil {
		t.Fatalf("strict decode did not self-heal: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatal("self-healed decode mismatch")
	}
	pdec, rep, err := DecompressFollow(nil, blob, shrinkCodec{}, Params{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pdec, src) {
		t.Fatal("partial decode mismatch after repair")
	}
	if c := rep.Counts(); c.Repaired != h.parityGroups() || c.Quarantined != 0 {
		t.Fatalf("report %s, want %d repaired", rep.Summary(), h.parityGroups())
	}
}

// TestV3PartialQuarantine pins degraded decode without parity: the corrupt
// chunk is quarantined (zero-filled, named in the report) and every other
// chunk's bytes are exact.
func TestV3PartialQuarantine(t *testing.T) {
	src := integrityTestSrc(128, 10)
	blob := CompressAppend(nil, src, 9, shrinkCodec{}, Params{ChunkSize: 128, Integrity: true})
	const victim = 4
	corruptChunk(t, blob, victim)

	if _, err := DecompressAppend(nil, blob, shrinkCodec{}, Params{}); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("strict decode error = %v, want ErrChunkCorrupt", err)
	}
	dec, rep, err := DecompressFollow(nil, blob, shrinkCodec{}, Params{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(src) {
		t.Fatalf("partial decode length %d, want %d", len(dec), len(src))
	}
	lo, hi := rep.Span(victim)
	for i, s := range rep.States {
		want := ChunkOK
		if i == victim {
			want = ChunkQuarantined
		}
		if s != want {
			t.Fatalf("chunk %d state %v, want %v", i, s, want)
		}
	}
	if !bytes.Equal(dec[:lo], src[:lo]) || !bytes.Equal(dec[hi:], src[hi:]) {
		t.Fatal("surviving chunks not byte-exact")
	}
	if !bytes.Equal(dec[lo:hi], make([]byte, hi-lo)) {
		t.Fatal("quarantined span not zero-filled")
	}
	ranges := rep.QuarantinedRanges()
	if len(ranges) != 1 || ranges[0] != [2]int{lo, hi} {
		t.Fatalf("quarantined ranges %v, want [[%d %d]]", ranges, lo, hi)
	}
}

// TestV3DoubleLossInGroup: two corrupt chunks in one parity group exceed
// single-loss repair; both are quarantined, the rest byte-exact.
func TestV3DoubleLossInGroup(t *testing.T) {
	src := integrityTestSrc(128, 10)
	blob := CompressAppend(nil, src, 9, shrinkCodec{}, Params{ChunkSize: 128, Parity: 4})
	corruptChunk(t, blob, 0)
	corruptChunk(t, blob, 2) // same group of 4
	if _, err := DecompressAppend(nil, blob, shrinkCodec{}, Params{}); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("strict decode error = %v, want ErrChunkCorrupt", err)
	}
	dec, rep, err := DecompressFollow(nil, blob, shrinkCodec{}, Params{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Counts(); c.Quarantined != 2 || c.Repaired != 0 {
		t.Fatalf("report %s, want 2 quarantined", rep.Summary())
	}
	_, hi := rep.Span(2)
	if !bytes.Equal(dec[hi:], src[hi:]) {
		t.Fatal("chunks outside the damaged group not byte-exact")
	}
}

// TestV3ParityBlockDamage: a corrupt parity block is harmless while the
// data chunks are clean, and correctly refuses to "repair" once a data
// chunk in its group is also lost.
func TestV3ParityBlockDamage(t *testing.T) {
	src := integrityTestSrc(128, 10)
	blob := CompressAppend(nil, src, 9, shrinkCodec{}, Params{ChunkSize: 128, Parity: 4})
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte of parity group 0's block (the first parity byte).
	blob[len(blob)-h.ParityPayloadLen()] ^= 0xFF
	dec, err := DecompressAppend(nil, blob, shrinkCodec{}, Params{})
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatalf("clean data chunks must decode despite parity damage: %v", err)
	}
	// Now also lose a data chunk in group 0: repair must fail verification,
	// not fabricate bytes.
	corruptChunk(t, blob, 1)
	pdec, rep, err := DecompressFollow(nil, blob, shrinkCodec{}, Params{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Counts(); c.Quarantined != 1 || c.Repaired != 0 {
		t.Fatalf("report %s, want 1 quarantined 0 repaired", rep.Summary())
	}
	lo, hi := rep.Span(1)
	if !bytes.Equal(pdec[lo:hi], make([]byte, hi-lo)) {
		t.Fatal("unrepairable span not zero-filled")
	}
}

// TestV3TornTail: a truncated container fails strict parse but salvages:
// chunks wholly before the cut decode clean, the rest quarantine.
func TestV3TornTail(t *testing.T) {
	src := integrityTestSrc(128, 10)
	blob := CompressAppend(nil, src, 9, shrinkCodec{}, Params{ChunkSize: 128, Integrity: true})
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	payloadStart := len(blob) - len(h.payload)
	cut := payloadStart + h.offsets[h.ChunkCount/2] + 1 // mid-chunk
	torn := blob[:cut]
	if _, err := Parse(torn); err == nil {
		t.Fatal("strict parse accepted a torn container")
	}
	if _, err := ParseSalvage(torn); err != nil {
		t.Fatalf("salvage parse: %v", err)
	}
	dec, rep, err := DecompressFollow(nil, torn, shrinkCodec{}, Params{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	half := h.ChunkCount / 2
	for i, s := range rep.States {
		if i < half && s != ChunkOK {
			t.Fatalf("chunk %d before the cut: %v", i, s)
		}
		if i >= half && s != ChunkQuarantined {
			t.Fatalf("chunk %d past the cut: %v", i, s)
		}
	}
	lo, _ := rep.Span(half)
	if !bytes.Equal(dec[:lo], src[:lo]) {
		t.Fatal("prefix chunks not byte-exact")
	}
}

// TestV3MetadataChecksum pins the satellite closing FORMAT.md's gap: a
// flipped bit in the size table (or any other metadata byte) is a typed,
// localized ErrHeaderChecksum — before v3 it decoded through garbage
// offsets until some downstream check happened to trip.
func TestV3MetadataChecksum(t *testing.T) {
	src := integrityTestSrc(128, 10)
	pristine := CompressAppend(nil, src, 9, shrinkCodec{}, Params{ChunkSize: 128, Parity: 3})
	// Locate the size table: fixed header (10) + flags byte + the three
	// header varints + the parity-group varint.
	pos := 11
	for k := 0; k < 4; k++ {
		_, n := uvarintLen(pristine[pos:])
		pos += n
	}
	for name, flip := range map[string]int{
		"size-table":   pos,                      // first size-table byte (bit 1 keeps the varint shape)
		"metadata-crc": metaEnd(t, pristine) - 1, // stored metadata CRC itself
	} {
		t.Run(name, func(t *testing.T) {
			blob := append([]byte(nil), pristine...)
			blob[flip] ^= 0x02
			if _, err := Parse(blob); !errors.Is(err, ErrHeaderChecksum) {
				t.Fatalf("strict parse error = %v, want ErrHeaderChecksum", err)
			}
			if _, err := ParseSalvage(blob); !errors.Is(err, ErrHeaderChecksum) {
				t.Fatalf("salvage parse error = %v, want ErrHeaderChecksum", err)
			}
			if _, _, err := DecompressFollow(nil, blob, shrinkCodec{}, Params{}, true, nil); !errors.Is(err, ErrHeaderChecksum) {
				t.Fatalf("partial decode error = %v, want ErrHeaderChecksum", err)
			}
		})
	}
}

// metaEnd returns the offset one past the v3 metadata CRC.
func metaEnd(t *testing.T, blob []byte) int {
	t.Helper()
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	return len(blob) - h.ParityPayloadLen() - len(h.payload)
}

// uvarintLen mirrors bitio.Uvarint's length accounting for test layout
// walking.
func uvarintLen(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7F) << (7 * i)
		if b[i]&0x80 == 0 {
			return v, i + 1
		}
	}
	return 0, 0
}

func TestV3UnknownFlags(t *testing.T) {
	src := integrityTestSrc(128, 4)
	blob := CompressAppend(nil, src, 9, shrinkCodec{}, Params{ChunkSize: 128, Integrity: true})
	blob[10] |= 1 << 5
	if _, err := Parse(blob); !errors.Is(err, ErrFormat) {
		t.Fatalf("unknown flag bits: %v, want ErrFormat", err)
	}
}

func TestV3Empty(t *testing.T) {
	blob := CompressAppend(nil, nil, 9, shrinkCodec{}, Params{Integrity: true, Parity: 2})
	dec, err := DecompressAppend(nil, blob, shrinkCodec{}, Params{})
	if err != nil || len(dec) != 0 {
		t.Fatalf("empty v3 decode: %v (%d bytes)", err, len(dec))
	}
	pdec, rep, err := DecompressFollow(nil, blob, shrinkCodec{}, Params{}, true, nil)
	if err != nil || len(pdec) != 0 || len(rep.States) != 0 {
		t.Fatalf("empty v3 partial decode: %v", err)
	}
}

// TestV3ChunkRepairRandomAccess pins per-chunk verified reads and the
// standalone parity reconstruction used by ranged access.
func TestV3ChunkRepairRandomAccess(t *testing.T) {
	src := integrityTestSrc(128, 10)
	blob := CompressAppend(nil, src, 9, shrinkCodec{}, Params{ChunkSize: 128, Parity: 3})
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 4
	corruptChunk(t, blob, victim)
	h, err = Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.DecompressChunkLimit(victim, shrinkCodec{}, -1); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("verified chunk read error = %v, want ErrChunkCorrupt", err)
	}
	dec, state, err := h.DecompressChunkRepair(victim, shrinkCodec{}, -1)
	if err != nil || state != ChunkRepaired {
		t.Fatalf("chunk repair: state %v, err %v", state, err)
	}
	lo, hi := h.chunkSpan(victim)
	if !bytes.Equal(dec, src[lo:hi]) {
		t.Fatal("repaired chunk bytes mismatch")
	}
	// An intact chunk reads as OK.
	dec, state, err = h.DecompressChunkRepair(0, shrinkCodec{}, -1)
	if err != nil || state != ChunkOK {
		t.Fatalf("clean chunk: state %v, err %v", state, err)
	}
	if lo, hi := h.chunkSpan(0); !bytes.Equal(dec, src[lo:hi]) {
		t.Fatal("clean chunk bytes mismatch")
	}
}

// TestPartialV1V2 pins degraded decode on the legacy layouts: clean
// containers report every chunk OK; with the whole-input CRC the only
// integrity signal, damage demotes survivors to unverified.
func TestPartialV1V2(t *testing.T) {
	src := integrityTestSrc(128, 10)
	blob := CompressAppend(nil, src, 9, shrinkCodec{}, Params{ChunkSize: 128})
	if blob[4] != 1 {
		t.Fatalf("fixed codec emitted v%d", blob[4])
	}
	dec, rep, err := DecompressFollow(nil, blob, shrinkCodec{}, Params{}, true, nil)
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatalf("clean v1 partial decode: %v", err)
	}
	if c := rep.Counts(); c.OK != len(rep.States) {
		t.Fatalf("clean v1 report %s", rep.Summary())
	}
	// Flip one payload byte: the damaged chunk either fails its decode
	// (quarantined) or decodes to wrong bytes — in both cases the whole-CRC
	// can no longer vouch for anyone.
	corruptChunk(t, blob, 3)
	_, rep, err = DecompressFollow(nil, blob, shrinkCodec{}, Params{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Counts(); c.OK != 0 {
		t.Fatalf("damaged v1 container still reports %d chunks OK (%s)", c.OK, rep.Summary())
	}
}

// TestV3CountersAdvance sanity-checks the process-wide integrity counters.
func TestV3CountersAdvance(t *testing.T) {
	before := Counters()
	src := integrityTestSrc(128, 10)
	blob := CompressAppend(nil, src, 9, shrinkCodec{}, Params{ChunkSize: 128, Parity: 3})
	corruptChunk(t, blob, 1)
	if _, _, err := DecompressFollow(nil, blob, shrinkCodec{}, Params{}, true, nil); err != nil {
		t.Fatal(err)
	}
	after := Counters()
	if after.Verified <= before.Verified || after.Repaired <= before.Repaired {
		t.Fatalf("counters did not advance: %+v -> %+v", before, after)
	}
}
