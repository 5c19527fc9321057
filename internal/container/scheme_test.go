package container

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"fpcompress/internal/bitio"
)

// schemeTestCodec is a minimal SchemeCodec for engine tests: it routes each
// chunk through one of two trivial invertible encodings keyed by the
// chunk's first byte, mimicking the selector's per-chunk pipeline choice.
// Both encodings are shrinkCodec-shaped (4-byte length, trailing zeros
// dropped); scheme 2 additionally XORs the stored bytes.
type schemeTestCodec struct{}

const (
	tsPlain = 1 // length header + zero-trimmed chunk
	tsXored = 2 // length header + zero-trimmed chunk, bytes ^ 0x5A
)

var errUnknownTestScheme = errors.New("schemeTestCodec: unknown scheme")

func (schemeTestCodec) ForwardSchemeInto(dst, chunk []byte) ([]byte, byte) {
	scheme := byte(tsPlain)
	if len(chunk) > 0 && chunk[0]&1 == 1 {
		scheme = tsXored
	}
	n := len(chunk)
	for n > 0 && chunk[n-1] == 0 {
		n--
	}
	dst = append(dst, byte(len(chunk)), byte(len(chunk)>>8), byte(len(chunk)>>16), byte(len(chunk)>>24))
	for _, c := range chunk[:n] {
		if scheme == tsXored {
			c ^= 0x5A
		}
		dst = append(dst, c)
	}
	return dst, scheme
}

func (schemeTestCodec) InverseSchemeInto(dst, enc []byte, scheme byte, maxDecoded int) ([]byte, error) {
	if scheme != tsPlain && scheme != tsXored {
		return nil, errUnknownTestScheme
	}
	if len(enc) < 4 {
		return nil, errors.New("schemeTestCodec: short chunk")
	}
	l := int(enc[0]) | int(enc[1])<<8 | int(enc[2])<<16 | int(enc[3])<<24
	if l < len(enc)-4 || (maxDecoded >= 0 && l > maxDecoded) {
		return nil, errors.New("schemeTestCodec: bad length")
	}
	start := len(dst)
	dst = append(dst, make([]byte, l)...)
	out := dst[start:]
	for i, c := range enc[4:] {
		if scheme == tsXored {
			c ^= 0x5A
		}
		out[i] = c
	}
	return dst, nil
}

func (c schemeTestCodec) Forward(chunk []byte) []byte {
	enc, _ := c.ForwardSchemeInto(nil, chunk)
	return enc
}

func (schemeTestCodec) Inverse([]byte) ([]byte, error) {
	return nil, errors.New("schemeTestCodec: scheme-less decode")
}

func (c schemeTestCodec) InverseLimit([]byte, int) ([]byte, error) {
	return nil, errors.New("schemeTestCodec: scheme-less decode")
}

// schemeTestSrc builds chunked data that exercises all three scheme
// outcomes: even-lead zero-heavy chunks (scheme 1), odd-lead zero-heavy
// chunks (scheme 2), and incompressible chunks (raw fallback, scheme 0).
func schemeTestSrc(chunkSize, chunks int) []byte {
	rng := rand.New(rand.NewSource(42))
	src := make([]byte, 0, chunkSize*chunks)
	for i := 0; i < chunks; i++ {
		chunk := make([]byte, chunkSize)
		switch i % 3 {
		case 0:
			chunk[0] = 2 // even lead, rest zeros: scheme 1
		case 1:
			chunk[0] = 3 // odd lead: scheme 2
		default:
			rng.Read(chunk) // incompressible: raw
			chunk[0] |= 1
		}
		src = append(src, chunk...)
	}
	return src
}

// TestSchemeRoundtrip pins the v2 container shape: scheme codecs produce
// version-2 containers whose scheme table routes each chunk back through
// the encoding that produced it, mixing schemes within one container.
func TestSchemeRoundtrip(t *testing.T) {
	src := schemeTestSrc(256, 9)
	blob := CompressAppend(nil, src, 9, schemeTestCodec{}, Params{ChunkSize: 256})
	if blob[4] != 2 {
		t.Fatalf("scheme codec emitted container version %d, want 2", blob[4])
	}
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 2 {
		t.Fatalf("parsed version %d, want 2", h.Version)
	}
	for i := 0; i < h.ChunkCount; i++ {
		want := byte(tsPlain)
		switch i % 3 {
		case 1:
			want = tsXored
		case 2:
			want = 0
		}
		if got := h.ChunkScheme(i); got != want {
			t.Errorf("chunk %d scheme %d, want %d", i, got, want)
		}
	}
	dec, err := DecompressAppend(nil, blob, schemeTestCodec{}, Params{})
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatalf("v2 roundtrip failed: %v", err)
	}
	// Per-chunk random access routes through the scheme table too.
	for i := 0; i < h.ChunkCount; i++ {
		dec, err := h.DecompressChunkLimit(i, schemeTestCodec{}, 256)
		if err != nil || !bytes.Equal(dec, src[i*256:(i+1)*256]) {
			t.Fatalf("chunk %d scheme-routed random access failed: %v", i, err)
		}
	}
}

// TestSchemeCodecVersionMismatch pins the two illegal pairings: a v2
// container cannot decode through a scheme-less codec (no way to route),
// and a scheme codec cannot decode a v1 container (no table to route by).
func TestSchemeCodecVersionMismatch(t *testing.T) {
	src := schemeTestSrc(256, 6)
	v2 := CompressAppend(nil, src, 9, schemeTestCodec{}, Params{ChunkSize: 256})
	v1 := CompressAppend(nil, src, 9, shrinkCodec{}, Params{ChunkSize: 256})

	if _, err := DecompressAppend(nil, v2, shrinkCodec{}, Params{}); !errors.Is(err, ErrFormat) {
		t.Errorf("v2 container through scheme-less codec: got %v, want ErrFormat", err)
	}
	if _, err := DecompressAppend(nil, v1, schemeTestCodec{}, Params{}); !errors.Is(err, ErrFormat) {
		t.Errorf("v1 container through scheme codec: got %v, want ErrFormat", err)
	}
	h2, err := Parse(v2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.DecompressChunkLimit(0, shrinkCodec{}, 256); !errors.Is(err, ErrFormat) {
		t.Errorf("v2 chunk through scheme-less codec: got %v, want ErrFormat", err)
	}
	h1, err := Parse(v1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.DecompressChunkLimit(0, schemeTestCodec{}, 256); !errors.Is(err, ErrFormat) {
		t.Errorf("v1 chunk through scheme codec: got %v, want ErrFormat", err)
	}
}

// rawContainerV2 hand-assembles a v2 container prefix with full control
// over the scheme table, for hostile-layout tests.
func rawContainerV2(originalLen, chunkSize, chunkCount uint64, entries []uint64, schemes, payload []byte) []byte {
	out := []byte{'F', 'P', 'C', 'Z', 2, 9, 0, 0, 0, 0}
	out = bitio.AppendUvarint(out, originalLen)
	out = bitio.AppendUvarint(out, chunkSize)
	out = bitio.AppendUvarint(out, chunkCount)
	for _, e := range entries {
		out = bitio.AppendUvarint(out, e)
	}
	out = append(out, schemes...)
	return append(out, payload...)
}

// TestHostileSchemeTable drives hostile per-chunk scheme bytes through
// Parse and the full decode: every case must fail with a typed error (and
// the decode budget respected), never a panic.
func TestHostileSchemeTable(t *testing.T) {
	src := schemeTestSrc(256, 9)
	valid := CompressAppend(nil, src, 9, schemeTestCodec{}, Params{ChunkSize: 256})
	h, err := Parse(valid)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk indices by stored kind, from the construction in schemeTestSrc.
	const compressedIdx, rawIdx = 0, 2

	// mutate returns a copy of the valid container with chunk i's scheme
	// byte replaced; h.schemes aliases the container, so the byte's offset
	// is recoverable from the alias.
	schemeOff := len(valid) - len(h.payload) - h.ChunkCount
	mutate := func(i int, scheme byte) []byte {
		blob := append([]byte(nil), valid...)
		blob[schemeOff+i] = scheme
		return blob
	}

	t.Run("unknown scheme id", func(t *testing.T) {
		blob := mutate(compressedIdx, 99)
		if _, err := DecompressAppend(nil, blob, schemeTestCodec{}, Params{}); !errors.Is(err, errUnknownTestScheme) {
			t.Errorf("got %v, want the codec's unknown-scheme error", err)
		}
	})
	t.Run("raw chunk with nonzero scheme", func(t *testing.T) {
		if _, err := Parse(mutate(rawIdx, tsPlain)); !errors.Is(err, ErrFormat) {
			t.Errorf("got %v, want ErrFormat", err)
		}
	})
	t.Run("compressed chunk with zero scheme", func(t *testing.T) {
		if _, err := Parse(mutate(compressedIdx, 0)); !errors.Is(err, ErrFormat) {
			t.Errorf("got %v, want ErrFormat", err)
		}
	})
	t.Run("truncated scheme table", func(t *testing.T) {
		// Two declared chunks, a one-byte scheme table, no payload: the
		// table check must fire (with its own error) before the
		// payload-length equality.
		blob := rawContainerV2(512, 256, 2, []uint64{0 << 1, 0 << 1}, []byte{tsPlain}, nil)
		if _, err := Parse(blob); !errors.Is(err, ErrFormat) {
			t.Errorf("got %v, want ErrFormat", err)
		}
	})
	t.Run("budget respected", func(t *testing.T) {
		if _, err := DecompressAppend(nil, valid, schemeTestCodec{}, Params{MaxDecoded: 100}); !errors.Is(err, ErrBudget) {
			t.Errorf("got %v, want ErrBudget", err)
		}
	})
}
