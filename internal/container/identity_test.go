package container

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// transformCodec adapts a transform to IntoCodec, the way the codec layer
// above the container engine adapts its chunk pipelines.
type transformCodec struct{ transforms.Transform }

func (c transformCodec) Forward(chunk []byte) []byte { return c.ForwardInto(nil, chunk) }
func (c transformCodec) Inverse(enc []byte) ([]byte, error) {
	return c.InverseInto(nil, enc, transforms.NoLimit)
}
func (c transformCodec) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return c.InverseInto(nil, enc, maxDecoded)
}

// legacyCompress is the reference construction the parallel engine must
// match byte for byte: encode every chunk serially with the plain Forward
// API, concatenate the payloads in order, checksum the input in one pass,
// and lay the container out with assemble. Any divergence in CompressAppend
// (arena bookkeeping, prefix-sum scatter, combined per-chunk CRCs) shows up
// as a byte mismatch here.
func legacyCompress(src []byte, algID byte, codec Codec, p Params) []byte {
	cs := p.chunkSize()
	nChunks := (len(src) + cs - 1) / cs
	sizes := make([]int, nChunks)
	rawFlags := make([]bool, nChunks)
	var payload []byte
	for i := 0; i < nChunks; i++ {
		lo := i * cs
		hi := lo + cs
		if hi > len(src) {
			hi = len(src)
		}
		chunk := src[lo:hi]
		enc := codec.Forward(chunk)
		if len(enc) < len(chunk) {
			sizes[i] = len(enc)
			payload = append(payload, enc...)
		} else {
			sizes[i] = len(chunk)
			rawFlags[i] = true
			payload = append(payload, chunk...)
		}
	}
	return assemble(algID, crc32.Checksum(src, crcTable), len(src), cs, sizes, rawFlags, payload)
}

// assemble builds the plain (version 1) container from already-compressed
// chunk data through the same appendMeta as CompressAppend, then appends
// the payload (the chunks concatenated in order).
func assemble(algID byte, crc uint32, srcLen, chunkSize int, sizes []int, rawFlags []bool, payload []byte) []byte {
	st := getEngineState(len(sizes), 1)
	defer putEngineState(st)
	copy(st.sizes, sizes)
	for i, raw := range rawFlags {
		st.flags[i] = 1
		if raw {
			st.flags[i] = 0
		}
	}
	out := st.appendMeta(make([]byte, 0, len(payload)+len(sizes)*3+32), layout{}, algID, crc, srcLen, chunkSize, 0)
	return append(out, payload...)
}

// identityInputs builds the edge-case corpus: empty, single byte, exact
// chunk multiples and off-by-ones, incompressible noise (all-raw), all
// zeros, smooth float-like data, and a mix alternating compressible and
// incompressible chunks so the scatter handles interleaved owners.
func identityInputs(cs int) map[string][]byte {
	rng := rand.New(rand.NewSource(42))
	noise := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	smooth := func(n int) []byte {
		b := make([]byte, n)
		for i := 0; i+8 <= n; i += 8 {
			v := math.Float64bits(1000 + 3*math.Sin(float64(i)/512))
			wordio.PutU64(b[i:], 0, v)
		}
		return b
	}
	mixed := make([]byte, 6*cs+7)
	for c := 0; c*cs < len(mixed); c++ {
		lo := c * cs
		hi := lo + cs
		if hi > len(mixed) {
			hi = len(mixed)
		}
		if c%2 == 0 {
			copy(mixed[lo:hi], smooth(hi-lo))
		} else {
			copy(mixed[lo:hi], noise(hi-lo))
		}
	}
	return map[string][]byte{
		"empty":      {},
		"one-byte":   {0x7f},
		"chunk-1":    smooth(cs - 1),
		"chunk":      smooth(cs),
		"chunk+1":    smooth(cs + 1),
		"zeros":      make([]byte, 4*cs),
		"noise":      noise(3*cs + 11),
		"smooth":     smooth(10*cs + 17),
		"mixed-raw":  mixed,
		"tiny-noise": noise(37),
	}
}

// TestCompressByteIdentity pins the parallel engine's output to the serial
// reference across codecs, chunk sizes, parallelism levels, and edge-case
// inputs. This is the regression gate for the scatter/CRC-combine rewrite.
func TestCompressByteIdentity(t *testing.T) {
	codecs := map[string]Codec{
		"shrink": shrinkCodec{},
		"xor":    xorCodec{},
		"spspeed": transformCodec{transforms.Pipeline{
			transforms.DiffMS{Word: wordio.W32},
			transforms.MPLG{Word: wordio.W32},
		}},
		"dpratio-chunked": transformCodec{transforms.Pipeline{
			transforms.DiffMS{Word: wordio.W64},
			transforms.RAZE{},
			transforms.RARE{},
		}},
	}
	for _, cs := range []int{777, 1024, DefaultChunkSize} {
		for cname, codec := range codecs {
			for iname, src := range identityInputs(cs) {
				want := legacyCompress(src, 9, codec, Params{ChunkSize: cs})
				for _, par := range []int{1, 4, 0} {
					name := fmt.Sprintf("cs=%d/%s/%s/p=%d", cs, cname, iname, par)
					got := CompressAppend(nil, src, 9, codec, Params{ChunkSize: cs, Parallelism: par})
					if !bytes.Equal(got, want) {
						t.Errorf("%s: engine output differs from serial reference (%d vs %d bytes)", name, len(got), len(want))
						continue
					}
					// And the container still round-trips.
					dec, err := DecompressAppend(nil, got, codec, Params{ChunkSize: cs, Parallelism: par, MaxDecoded: -1})
					if err != nil {
						t.Errorf("%s: roundtrip: %v", name, err)
					} else if !bytes.Equal(dec, src) {
						t.Errorf("%s: roundtrip mismatch", name)
					}
				}
			}
		}
	}
}

// TestCompressAppendPrefix verifies the append contract: compressing onto a
// non-empty dst preserves the prefix and appends exactly the standalone
// container.
func TestCompressAppendPrefix(t *testing.T) {
	src := identityInputs(1024)["smooth"]
	p := Params{ChunkSize: 1024}
	standalone := CompressAppend(nil, src, 9, shrinkCodec{}, p)
	prefix := []byte("existing-bytes")
	got := CompressAppend(append([]byte(nil), prefix...), src, 9, shrinkCodec{}, p)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatal("CompressAppend clobbered dst's existing bytes")
	}
	if !bytes.Equal(got[len(prefix):], standalone) {
		t.Fatal("CompressAppend suffix differs from standalone Compress")
	}
}
