package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"fpcompress/internal/container"
	"fpcompress/internal/wordio"
)

// The allocation gates pin the zero-allocation hot path: once the pooled
// scratch buffers are warm, a chunk round-trip through any algorithm's
// pipeline and a whole-container round-trip must stay under small constant
// allocation ceilings. The ceilings are deliberately loose (a GC cycle mid
// run may empty a sync.Pool and force a refill) but far below the hundreds
// of allocations per operation the pre-pooling code paths made, so a
// regression that reintroduces per-call buffers trips them immediately.

// gateChunk builds one default-size chunk of smooth float-like data, the
// compressible common case that exercises every stage of each pipeline.
func gateChunk(word wordio.WordSize) []byte {
	b := make([]byte, container.DefaultChunkSize)
	if word == wordio.W32 {
		for i := 0; i+4 <= len(b); i += 4 {
			v := math.Float32bits(float32(100 + math.Sin(float64(i)/256)))
			wordio.PutU32(b[i:], 0, v)
		}
		return b
	}
	for i := 0; i+8 <= len(b); i += 8 {
		wordio.PutU64(b[i:], 0, math.Float64bits(100+math.Sin(float64(i)/512)))
	}
	return b
}

// TestAllocGateChunkPipeline runs each chunk pipeline twice: on an aligned
// chunk appending to empty buffers, and on a chunk at byte offset 1
// appending after a 1-byte dst prefix, so the encoded input, the source
// and both outputs are all misaligned and every kernel runs on
// copy-in/copy-out scratch. Both must stay under the same ceiling.
func TestAllocGateChunkPipeline(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 4.0 // allocs per compress+decompress chunk round-trip
	for _, a := range allExtended() {
		t.Run(a.Name(), func(t *testing.T) {
			for _, off := range []int{0, 1} {
				t.Run(fmt.Sprintf("offset%d", off), func(t *testing.T) {
					aligned := gateChunk(a.Word)
					chunk := make([]byte, off+len(aligned))[off:]
					copy(chunk, aligned)
					p := a.Chunked
					fwd, dec := make([]byte, off), make([]byte, off)
					var err error
					roundTrip := func() {
						fwd = p.ForwardInto(fwd[:off], chunk)
						dec, err = p.InverseInto(dec[:off], fwd[off:], len(chunk))
					}
					// Warm the scratch pools before counting.
					for i := 0; i < 4; i++ {
						if roundTrip(); err != nil {
							t.Fatal(err)
						}
					}
					if !bytes.Equal(dec[off:], chunk) {
						t.Fatal("roundtrip mismatch")
					}
					avg := testing.AllocsPerRun(200, roundTrip)
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("chunk round-trip: %.1f allocs/op (ceiling %.1f)", avg, ceiling)
					if avg > ceiling {
						t.Errorf("chunk round-trip: %.1f allocs/op, ceiling %.1f", avg, ceiling)
					}
				})
			}
		})
	}
}

// TestAllocGateDecompressOnly pins the decode side by itself: per-chunk
// inverse temporaries are pooled and the engine's header and error
// plumbing allocate nothing per chunk, so whole-container decompression
// is a small constant regardless of chunk count. (Before the decode-side
// sweep, every chunk heap-allocated its error slot and the RZE bitmap
// decoder allocated two tables per chunk: ~1-5 allocs per chunk, hundreds
// per op.)
func TestAllocGateDecompressOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 16.0
	src := make([]byte, 32*container.DefaultChunkSize+100)
	for i := 0; i+8 <= len(src); i += 8 {
		wordio.PutU64(src[i:], 0, math.Float64bits(2000+math.Cos(float64(i)/384)))
	}
	p := container.Params{Parallelism: 1, MaxDecoded: -1}
	for _, a := range allExtended() {
		t.Run(a.Name(), func(t *testing.T) {
			blob := a.Compress(src, p)
			var back []byte
			var err error
			for i := 0; i < 4; i++ {
				if back, err = a.DecompressAppend(back[:0], blob, p); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(back, src) {
				t.Fatal("roundtrip mismatch")
			}
			avg := testing.AllocsPerRun(50, func() {
				back, err = a.DecompressAppend(back[:0], blob, p)
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s decompress: %.1f allocs/op (ceiling %.1f)", a.Name(), avg, ceiling)
			if avg > ceiling {
				t.Errorf("%s decompress: %.1f allocs/op, ceiling %.1f", a.Name(), avg, ceiling)
			}
		})
	}
}

func TestAllocGateContainerRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// Whole-container round-trip with reused destination buffers. The
	// engine spawns its worker goroutine(s) per call, so the ceiling is
	// higher than the chunk gate's but still a small constant — the
	// pre-pooling path allocated per chunk and per stage. Measured steady
	// state is ~11 allocs/op; the slack covers a GC emptying a pool mid
	// run.
	const ceiling = 24.0
	src := make([]byte, 8*container.DefaultChunkSize+100)
	for i := 0; i+8 <= len(src); i += 8 {
		wordio.PutU64(src[i:], 0, math.Float64bits(2000+math.Cos(float64(i)/384)))
	}
	p := container.Params{Parallelism: 1, MaxDecoded: -1}
	for _, a := range allExtended() {
		t.Run(a.Name(), func(t *testing.T) {
			var blob, back []byte
			var err error
			for i := 0; i < 4; i++ {
				blob = a.CompressAppend(blob[:0], src, p)
				if back, err = a.DecompressAppend(back[:0], blob, p); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(back, src) {
				t.Fatal("roundtrip mismatch")
			}
			avg := testing.AllocsPerRun(50, func() {
				blob = a.CompressAppend(blob[:0], src, p)
				back, err = a.DecompressAppend(back[:0], blob, p)
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s container round-trip: %.1f allocs/op (ceiling %.1f)", a.Name(), avg, ceiling)
			if avg > ceiling {
				t.Errorf("%s container round-trip: %.1f allocs/op, ceiling %.1f", a.Name(), avg, ceiling)
			}
		})
	}
}
