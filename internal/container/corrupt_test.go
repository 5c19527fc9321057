package container

import (
	"errors"
	"testing"

	"fpcompress/internal/bitio"
)

// buildValid compresses n bytes of smooth-ish data with the shrink codec so
// tests have a genuine container to corrupt.
func buildValid(t testing.TB, n, chunkSize int) []byte {
	t.Helper()
	src := make([]byte, n)
	for i := range src {
		if i%4 == 0 {
			src[i] = byte(i / 4)
		}
	}
	return CompressAppend(nil, src, 7, shrinkCodec{}, Params{ChunkSize: chunkSize})
}

// header returns a hand-assembled container prefix with full control over
// the declared quantities, followed by sizeTable entries and payload.
func rawContainer(originalLen, chunkSize, chunkCount uint64, entries []uint64, payload []byte) []byte {
	out := []byte{'F', 'P', 'C', 'Z', 1, 0, 0, 0, 0, 0}
	out = bitio.AppendUvarint(out, originalLen)
	out = bitio.AppendUvarint(out, chunkSize)
	out = bitio.AppendUvarint(out, chunkCount)
	for _, e := range entries {
		out = bitio.AppendUvarint(out, e)
	}
	return append(out, payload...)
}

// TestParseCorruptHeaders verifies that every malformed layout Parse can
// meet yields ErrFormat, never a panic or an oversized allocation.
func TestParseCorruptHeaders(t *testing.T) {
	valid := buildValid(t, 1000, 256)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte("FPC")},
		{"bad magic", append([]byte("XPCZ"), valid[4:]...)},
		{"bad version", append([]byte("FPCZ\x03"), valid[5:]...)},
		// Version 2 is valid only with a scheme table; stamping it onto a
		// v1 layout starves the payload of the table bytes.
		{"v2 stamp on v1 layout", append([]byte("FPCZ\x02"), valid[5:]...)},
		{"truncated header varints", valid[:11]},
		{"header varint over 2^56", rawContainer(1<<57, 256, 1, nil, nil)},
		{"zero chunk size", rawContainer(100, 0, 1, []uint64{100 << 1}, make([]byte, 100))},
		{"chunk count mismatch", rawContainer(1000, 256, 2, []uint64{500 << 1, 500 << 1}, make([]byte, 1000))},
		// Declares 2^40 bytes => 2^32 chunks; must be rejected before the
		// entries/offsets allocation, not after.
		{"chunk count beyond container", rawContainer(1<<40, 256, 1<<32, nil, nil)},
		// Two entries whose uint64 sum wraps int64; the overflow-safe
		// accumulation must catch them against the container length.
		{"size table int overflow", rawContainer(512, 256, 2,
			[]uint64{(1 << 62) << 1, (1 << 62) << 1}, make([]byte, 16))},
		{"size table entry exceeds container", rawContainer(512, 256, 2,
			[]uint64{1 << 40 << 1, 16 << 1}, make([]byte, 16))},
		{"payload shorter than size table", valid[:len(valid)-1]},
		{"payload longer than size table", append(append([]byte{}, valid...), 0xAA)},
		{"truncated size table", valid[:14]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, err := Parse(c.data)
			if err == nil {
				t.Fatalf("Parse accepted corrupt container (%d chunks)", h.ChunkCount)
			}
			if !errors.Is(err, ErrFormat) {
				t.Errorf("error %v does not wrap ErrFormat", err)
			}
		})
	}
}

// TestDecompressBudget checks the output-allocation gate: a container
// declaring more than the budget is refused before the allocation.
func TestDecompressBudget(t *testing.T) {
	blob := buildValid(t, 100_000, 4096)
	if _, err := DecompressAppend(nil, blob, shrinkCodec{}, Params{MaxDecoded: 1024}); !errors.Is(err, ErrBudget) {
		t.Fatalf("100 kB container under 1 kB budget: got %v, want ErrBudget", err)
	}
	for _, p := range []Params{{}, {MaxDecoded: 100_000}, {MaxDecoded: -1}} {
		if _, err := DecompressAppend(nil, blob, shrinkCodec{}, p); err != nil {
			t.Fatalf("budget %d rejected valid container: %v", p.MaxDecoded, err)
		}
	}
	// A tiny container *claiming* a huge original length must fail at the
	// budget gate even though its chunk table is self-consistent.
	huge := rawContainer(1<<40, 1<<40, 1, []uint64{4 << 1}, []byte{1, 2, 3, 4})
	if _, err := DecompressAppend(nil, huge, shrinkCodec{}, Params{}); !errors.Is(err, ErrBudget) {
		t.Fatalf("declared 1 TiB output under default budget: got %v, want ErrBudget", err)
	}
}

// TestDecompressChunkLimit checks the per-chunk budget and the raw-chunk
// copy semantics.
func TestDecompressChunkLimit(t *testing.T) {
	blob := buildValid(t, 10_000, 4096)
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.DecompressChunkLimit(0, shrinkCodec{}, 100); !errors.Is(err, ErrBudget) {
		t.Errorf("4096-byte chunk under 100-byte budget: got %v, want ErrBudget", err)
	}
	if _, err := h.DecompressChunkLimit(-1, shrinkCodec{}, -1); !errors.Is(err, ErrFormat) {
		t.Errorf("negative index: got %v, want ErrFormat", err)
	}
	if _, err := h.DecompressChunkLimit(h.ChunkCount, shrinkCodec{}, -1); !errors.Is(err, ErrFormat) {
		t.Errorf("index past end: got %v, want ErrFormat", err)
	}
	dec, err := h.DecompressChunkLimit(0, shrinkCodec{}, 4096)
	if err != nil || len(dec) != 4096 {
		t.Fatalf("exact budget failed: %v (%d bytes)", err, len(dec))
	}
}

// TestOffsetsCache cross-checks the prefix-sum offsets built in Parse
// against a manual rescan of the size table.
func TestOffsetsCache(t *testing.T) {
	blob := buildValid(t, 50_000, 1000)
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	manual := 0
	for i := 0; i < h.ChunkCount; i++ {
		size := int(h.entries[i] >> 1)
		payload, _, err := h.ChunkPayload(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != size || h.offsets[i] != manual {
			t.Fatalf("chunk %d: offset %d / size %d, manual scan says %d / %d",
				i, h.offsets[i], len(payload), manual, size)
		}
		manual += size
	}
	if h.offsets[h.ChunkCount] != len(h.payload) {
		t.Fatalf("final offset %d != payload length %d", h.offsets[h.ChunkCount], len(h.payload))
	}
}

// FuzzParse feeds arbitrary bytes to the header parser: it must never
// panic, and any header it accepts must satisfy the structural invariants
// that DecompressAppend and the random-access paths rely on.
func FuzzParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FPCZ"))
	f.Add(buildValid(f, 1000, 256))
	f.Add(buildValid(f, 16384, 0))
	f.Add(rawContainer(1<<40, 256, 1<<32, nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := Parse(data)
		if err != nil {
			return
		}
		if h.ChunkCount < 0 || h.OriginalLen < 0 || h.ChunkSize <= 0 {
			t.Fatalf("accepted header with negative fields: %+v", h)
		}
		if len(h.offsets) != h.ChunkCount+1 || h.offsets[h.ChunkCount] != len(h.payload) {
			t.Fatal("offsets inconsistent with payload")
		}
		for i := 0; i < h.ChunkCount; i++ {
			if h.offsets[i] > h.offsets[i+1] {
				t.Fatalf("offsets not monotonic at %d", i)
			}
		}
	})
}

// FuzzDecompressContainer mutates genuine containers — v1, v2 (whose
// per-chunk scheme table the fuzzer freely rewrites), and windowed v4
// (whose flags byte the fuzzer rewrites against the version/flag
// consistency checks) — through the full engine under a small budget;
// arbitrary bytes must produce an error or correct output, never a panic
// or a large allocation.
func FuzzDecompressContainer(f *testing.F) {
	f.Add(buildValid(f, 1000, 256))
	f.Add(buildValid(f, 100_000, 4096))
	f.Add(CompressAppend(nil, schemeTestSrc(256, 9), 9, schemeTestCodec{}, Params{ChunkSize: 256}))
	f.Add(CompressAppend(nil, schemeTestSrc(512, 30), 9, schemeTestCodec{}, Params{ChunkSize: 512}))
	f.Add(CompressAppend(nil, schemeTestSrc(512, 30), 9, schemeTestCodec{}, Params{ChunkSize: 512, Windowed: true}))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecompressAppend(nil, data, shrinkCodec{}, Params{MaxDecoded: 1 << 20, Parallelism: 2})
		if err == nil && len(dec) > 1<<20 {
			t.Fatalf("decoded %d bytes past the 1 MiB budget", len(dec))
		}
		dec, err = DecompressAppend(nil, data, schemeTestCodec{}, Params{MaxDecoded: 1 << 20, Parallelism: 2})
		if err == nil && len(dec) > 1<<20 {
			t.Fatalf("scheme decode produced %d bytes past the 1 MiB budget", len(dec))
		}
	})
}
