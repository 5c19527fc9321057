package container

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// xorCodec is a trivial invertible per-chunk codec for engine tests: it
// never compresses (output = input length + 1), forcing the raw fallback.
type xorCodec struct{}

func (xorCodec) Forward(chunk []byte) []byte {
	out := make([]byte, len(chunk)+1)
	out[0] = 0xA5
	for i, c := range chunk {
		out[i+1] = c ^ 0x5A
	}
	return out
}

func (xorCodec) Inverse(enc []byte) ([]byte, error) {
	if len(enc) == 0 || enc[0] != 0xA5 {
		return nil, errors.New("bad marker")
	}
	out := make([]byte, len(enc)-1)
	for i, c := range enc[1:] {
		out[i] = c ^ 0x5A
	}
	return out, nil
}

// shrinkCodec drops trailing zero bytes (with a varint-free length scheme)
// to exercise the compressed path.
type shrinkCodec struct{}

func (shrinkCodec) Forward(chunk []byte) []byte {
	n := len(chunk)
	for n > 0 && chunk[n-1] == 0 {
		n--
	}
	out := make([]byte, 4+n)
	out[0] = byte(len(chunk))
	out[1] = byte(len(chunk) >> 8)
	out[2] = byte(len(chunk) >> 16)
	out[3] = byte(len(chunk) >> 24)
	copy(out[4:], chunk[:n])
	return out
}

func (shrinkCodec) Inverse(enc []byte) ([]byte, error) {
	if len(enc) < 4 {
		return nil, errors.New("short")
	}
	l := int(enc[0]) | int(enc[1])<<8 | int(enc[2])<<16 | int(enc[3])<<24
	if l < len(enc)-4 || l > 1<<30 {
		return nil, errors.New("bad length")
	}
	out := make([]byte, l)
	copy(out, enc[4:])
	return out, nil
}

func TestRawFallback(t *testing.T) {
	src := make([]byte, 100000)
	rand.New(rand.NewSource(1)).Read(src)
	blob := CompressAppend(nil, src, 7, xorCodec{}, Params{})
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range h.entries {
		if e&1 != 0 {
			t.Errorf("chunk %d not stored raw despite expanding codec", i)
		}
	}
	// Worst-case expansion is bounded by the header + size table.
	if len(blob) > len(src)+len(src)/1000+64 {
		t.Errorf("expansion too large: %d -> %d", len(src), len(blob))
	}
	dec, err := DecompressAppend(nil, blob, xorCodec{}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, src) {
		t.Error("raw-fallback roundtrip mismatch")
	}
}

func TestCompressedPath(t *testing.T) {
	src := make([]byte, 200000) // almost entirely trailing zeros per chunk
	for i := 0; i < 100; i++ {
		src[i] = byte(i + 1)
	}
	blob := CompressAppend(nil, src, 3, shrinkCodec{}, Params{})
	if len(blob) >= len(src)/10 {
		t.Errorf("expected strong compression, got %d -> %d", len(src), len(blob))
	}
	dec, err := DecompressAppend(nil, blob, shrinkCodec{}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, src) {
		t.Error("roundtrip mismatch")
	}
	if id, _ := AlgorithmID(blob); id != 3 {
		t.Errorf("algorithm id = %d, want 3", id)
	}
}

func TestEmptyInput(t *testing.T) {
	blob := CompressAppend(nil, nil, 1, xorCodec{}, Params{})
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h.ChunkCount != 0 || h.OriginalLen != 0 {
		t.Errorf("empty input: count=%d len=%d", h.ChunkCount, h.OriginalLen)
	}
	dec, err := DecompressAppend(nil, blob, xorCodec{}, Params{})
	if err != nil || len(dec) != 0 {
		t.Errorf("empty roundtrip: %v, %d bytes", err, len(dec))
	}
}

func TestChunkSizes(t *testing.T) {
	src := make([]byte, 50001)
	rand.New(rand.NewSource(2)).Read(src)
	for _, cs := range []int{1, 7, 512, 16384, 65536, 100000} {
		blob := CompressAppend(nil, src, 1, shrinkCodec{}, Params{ChunkSize: cs})
		dec, err := DecompressAppend(nil, blob, shrinkCodec{}, Params{})
		if err != nil {
			t.Fatalf("chunk size %d: %v", cs, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("chunk size %d: mismatch", cs)
		}
	}
}

func TestParallelismDeterminism(t *testing.T) {
	src := make([]byte, 300000)
	rand.New(rand.NewSource(3)).Read(src)
	ref := CompressAppend(nil, src, 1, shrinkCodec{}, Params{Parallelism: 1})
	for _, par := range []int{2, 4, 16} {
		got := CompressAppend(nil, src, 1, shrinkCodec{}, Params{Parallelism: par})
		if !bytes.Equal(ref, got) {
			t.Fatalf("output differs between 1 and %d workers", par)
		}
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	src := make([]byte, 40000)
	blob := CompressAppend(nil, src, 1, shrinkCodec{}, Params{})

	cases := map[string]func([]byte) []byte{
		"bad magic":       func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":     func(b []byte) []byte { b[4] = 99; return b },
		"truncated":       func(b []byte) []byte { return b[:len(b)-1] },
		"extra bytes":     func(b []byte) []byte { return append(b, 0) },
		"truncated early": func(b []byte) []byte { return b[:5] },
	}
	for name, corrupt := range cases {
		mutated := corrupt(append([]byte(nil), blob...))
		if _, err := Parse(mutated); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestDecompressSurfacesChunkErrors(t *testing.T) {
	src := make([]byte, 100000)
	blob := CompressAppend(nil, src, 1, shrinkCodec{}, Params{})
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside some compressed chunk.
	off := len(blob) - h.CompressedPayloadLen() + 1
	blob[off] ^= 0xFF
	if _, err := DecompressAppend(nil, blob, shrinkCodec{}, Params{}); err == nil {
		t.Error("payload corruption not detected")
	}
}

// gateCodec is shrinkCodec whose failing decode of the chunk whose first
// byte is low waits until a failing decode of another chunk has returned,
// so the higher of two corrupt chunks always fails first in time.
type gateCodec struct {
	low        byte
	highFailed chan struct{}
	once       *sync.Once
}

func (c gateCodec) Forward(chunk []byte) []byte { return shrinkCodec{}.Forward(chunk) }

func (c gateCodec) Inverse(enc []byte) ([]byte, error) {
	dec, err := shrinkCodec{}.Inverse(enc)
	if err == nil || c.highFailed == nil {
		return dec, err
	}
	if enc[4] != c.low {
		c.once.Do(func() { close(c.highFailed) })
		return dec, err
	}
	select {
	case <-c.highFailed:
	case <-time.After(10 * time.Second): // a loop that never reaches the high chunk
	}
	return dec, err
}

// TestDecompressLowestChunkError pins the strict decode's error to the
// lowest failing chunk, whatever the worker count and however the workers
// are scheduled: the codec holds the lower corrupt chunk back until the
// higher one has failed.
func TestDecompressLowestChunkError(t *testing.T) {
	const cs, low, high = 1024, 5, 40
	src := make([]byte, 64<<10)
	for i := 0; i < len(src)/cs; i++ {
		src[i*cs], src[i*cs+1] = byte(i+1), 0xA5 // first byte marks the chunk
	}
	for _, p := range []Params{{ChunkSize: cs}, {ChunkSize: cs, Integrity: true}} {
		blob := CompressAppend(nil, src, 1, shrinkCodec{}, p)
		for _, i := range []int{low, high} {
			lo, _ := chunkStoredRange(t, blob, i)
			copy(blob[lo:lo+4], []byte{0xFF, 0xFF, 0xFF, 0xFF}) // length field: bad length
		}
		var want string
		for _, workers := range []int{1, 2, 4} {
			codec := gateCodec{low: low + 1}
			if workers > 1 {
				codec.highFailed, codec.once = make(chan struct{}), new(sync.Once)
			}
			_, err := DecompressAppend(nil, blob, codec, Params{Parallelism: workers})
			if err == nil {
				t.Fatalf("integrity %v, %d workers: corrupt chunks decoded", p.Integrity, workers)
			}
			if !strings.Contains(err.Error(), "chunk 5: bad length") {
				t.Errorf("integrity %v, %d workers: error %q, want chunk %d's", p.Integrity, workers, err, low)
			}
			if p.Integrity != errors.Is(err, ErrChunkCorrupt) {
				t.Errorf("integrity %v, %d workers: error %q, ErrChunkCorrupt %v", p.Integrity, workers, err, !p.Integrity)
			}
			if workers == 1 {
				want = err.Error()
			} else if err.Error() != want {
				t.Errorf("integrity %v: %d workers report %q, 1 worker %q", p.Integrity, workers, err, want)
			}
		}
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(src []byte, par uint8) bool {
		p := Params{Parallelism: int(par%8) + 1, ChunkSize: 777}
		blob := CompressAppend(nil, src, 9, shrinkCodec{}, p)
		dec, err := DecompressAppend(nil, blob, shrinkCodec{}, Params{})
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHeaderOverheadSmall(t *testing.T) {
	src := make([]byte, 1<<20)
	blob := CompressAppend(nil, src, 1, shrinkCodec{}, Params{})
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	ovh := len(blob) - h.CompressedPayloadLen() - h.ParityPayloadLen()
	// 64 chunks of 16 kB: expect well under 1% overhead.
	if ovh > 1024 {
		t.Errorf("header overhead %d bytes for 1 MiB input", ovh)
	}
}

func TestChecksumCatchesSilentCorruption(t *testing.T) {
	// Raw chunks decode "successfully" even when mutated; the CRC must
	// still reject the result.
	src := make([]byte, 100000)
	rand.New(rand.NewSource(9)).Read(src)
	blob := CompressAppend(nil, src, 1, xorCodec{}, Params{}) // expands -> all raw chunks
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	off := len(blob) - h.CompressedPayloadLen() + 5
	blob[off] ^= 0x01
	_, err = DecompressAppend(nil, blob, xorCodec{}, Params{})
	if !errors.Is(err, ErrChecksum) {
		t.Errorf("want ErrChecksum, got %v", err)
	}
}

func TestHeaderCRCRecorded(t *testing.T) {
	src := []byte("some original data to checksum")
	blob := CompressAppend(nil, src, 1, shrinkCodec{}, Params{})
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h.CRC == 0 {
		t.Error("CRC not recorded")
	}
	dec, err := DecompressAppend(nil, blob, shrinkCodec{}, Params{})
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatal("roundtrip with CRC failed")
	}
}

func TestAssembleMatchesCompress(t *testing.T) {
	// assemble must reproduce exactly what CompressAppend emits when fed
	// the same chunk results — the contract legacyCompress relies on.
	src := make([]byte, 70000)
	rand.New(rand.NewSource(11)).Read(src)
	blob := CompressAppend(nil, src, 5, shrinkCodec{}, Params{})
	h, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, h.ChunkCount)
	raw := make([]bool, h.ChunkCount)
	var payload []byte
	for i := 0; i < h.ChunkCount; i++ {
		p, isRaw, err := h.ChunkPayload(i)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = len(p)
		raw[i] = isRaw
		payload = append(payload, p...)
	}
	rebuilt := assemble(5, h.CRC, h.OriginalLen, h.ChunkSize, sizes, raw, payload)
	if !bytes.Equal(rebuilt, blob) {
		t.Error("assemble output differs from CompressAppend output")
	}
}

func TestChunkPayloadBounds(t *testing.T) {
	blob := CompressAppend(nil, make([]byte, 40000), 1, shrinkCodec{}, Params{})
	h, _ := Parse(blob)
	if _, _, err := h.ChunkPayload(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, _, err := h.ChunkPayload(h.ChunkCount); err == nil {
		t.Error("out-of-range index accepted")
	}
}
