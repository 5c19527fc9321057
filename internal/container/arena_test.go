package container

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fpcompress/internal/selector"
	"fpcompress/internal/transforms"
	"fpcompress/internal/transforms/fused"
	"fpcompress/internal/wordio"
)

// chunkCodecs are the chunk encoders the algorithms hand the engine: each
// fixed pipeline resolved to its fused kernel or itself, and the
// selectors, windowed included.
func chunkCodecs() map[string]func(dst, chunk []byte) []byte {
	w32, w64 := wordio.W32, wordio.W64
	pipes := []transforms.Pipeline{
		{transforms.DiffMS{Word: w32}, transforms.MPLG{Word: w32}},
		{transforms.DiffMS{Word: w32}, transforms.Bit{Word: w32}, transforms.RZE{}},
		{transforms.DiffMS{Word: w32}, transforms.MPLG{Word: w32}, transforms.RZE{}},
		{transforms.DiffMS{Word: w64}, transforms.MPLG{Word: w64}},
		{transforms.DiffMS{Word: w64}, transforms.RAZE{}, transforms.RARE{}},
		{transforms.DiffMS{Word: w64}, transforms.MPLG{Word: w64}, transforms.RZE{}},
		{transforms.FCMW{}},
	}
	codecs := map[string]func(dst, chunk []byte) []byte{}
	for _, p := range pipes {
		codecs[p.Name()] = fused.Match(p).ForwardInto
	}
	for name, s := range map[string]*selector.Selector{
		"AUTO32": selector.New(w32), "AUTO64": selector.New(w64), "AUTO64W": selector.NewWindowed(w64),
	} {
		codecs[name] = func(dst, chunk []byte) []byte {
			dst, _ = s.ForwardSchemeInto(dst, chunk)
			return dst
		}
	}
	return codecs
}

// TestChunkRoomCoversCodecs pins chunkRoom above every codec's worst-case
// request: encoding a chunk into a block with chunkRoom free bytes must
// never regrow the block, on noise (the worst case), zeros and smooth
// data, at the default chunk size and at a short tail.
func TestChunkRoomCoversCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	noise := make([]byte, DefaultChunkSize)
	rng.Read(noise)
	smooth := make([]byte, DefaultChunkSize)
	for i := 0; i+8 <= len(smooth); i += 8 {
		wordio.PutU64(smooth[i:], 0, math.Float64bits(1000+3*math.Sin(float64(i)/512)))
	}
	inputs := map[string][]byte{
		"noise": noise, "zeros": make([]byte, DefaultChunkSize), "smooth": smooth, "tail": noise[:1000],
	}
	for name, fwd := range chunkCodecs() {
		for iname, chunk := range inputs {
			room := chunkRoom(len(chunk))
			block := make([]byte, 0, room)
			if out := fwd(block, chunk); cap(out) != room {
				t.Errorf("%s/%s: encoding %d bytes regrew a block of %d free bytes to %d (encoded %d)",
					name, iname, len(chunk), room, cap(out), len(out))
			}
		}
	}
}

// TestColdCompressAlloc pins what one cold CompressAppend allocates, with the
// engine's and the transforms' pools emptied by two collections: the
// container itself (0.86 B/B here) plus arena blocks sized from the call
// and never regrown. An arena regrown by appending copies its encoded
// chunks at every regrow; it allocates 4.7–4.9 B/B here and fails the
// ceiling.
func TestColdCompressAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src := identityInputs(DefaultChunkSize)["smooth"]
	for len(src) < 2<<20 {
		src = append(src, src...)
	}
	codec := transformCodec{fused.Match(transforms.Pipeline{
		transforms.DiffMS{Word: wordio.W64}, transforms.RAZE{}, transforms.RARE{},
	})}
	const ceiling = 2.5 // bytes allocated per input byte
	for _, par := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		out := CompressAppend(nil, src, 9, codec, Params{Parallelism: par})
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(src))
		t.Logf("p=%d: cold compress of %d bytes to %d allocated %.2f B/B", par, len(src), len(out), perByte)
		if perByte > ceiling {
			t.Errorf("p=%d: cold compress allocated %.2f B/B, ceiling %.1f", par, perByte, ceiling)
		}
	}
}
