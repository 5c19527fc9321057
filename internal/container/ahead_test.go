package container

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpcompress/internal/transforms"
)

// holdGrow makes worker 0 of the test's decodes wait, before it grows the
// output, until release is closed, so the other workers decode ahead of
// the output meanwhile. It returns how many decodes ran the hook: a fresh
// output at more than one worker must.
func holdGrow(t *testing.T, release <-chan struct{}) *atomic.Int32 {
	t.Helper()
	var grows atomic.Int32
	aheadGrowHook = func() {
		grows.Add(1)
		select {
		case <-release:
		case <-time.After(5 * time.Second):
			t.Error("no chunk decoded ahead of the output")
		}
	}
	t.Cleanup(func() { aheadGrowHook = nil })
	return &grows
}

// aheadTestSrc is n compressible chunks of cs bytes: random heads, zero
// tails, so no chunk is stored raw and every one goes through the codec.
func aheadTestSrc(cs, n int) []byte {
	rng := rand.New(rand.NewSource(11))
	src := make([]byte, cs*n)
	for i := 0; i < len(src); i += cs {
		rng.Read(src[i : i+cs/4])
	}
	return src
}

// trip marks chunk i of blob so that shrinkCodec refuses it: its length
// prefix reads 0xFFFFFFFF.
func trip(t *testing.T, blob []byte, i int) {
	t.Helper()
	lo, _ := chunkStoredRange(t, blob, i)
	copy(blob[lo:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
}

// tripCodec is shrinkCodec that, on a chunk marked by trip, closes
// tripped and then fails, or panics when panics is set.
type tripCodec struct {
	shrinkCodec
	tripped chan struct{}
	once    *sync.Once
	panics  bool
}

func newTripCodec(panics bool) tripCodec {
	return tripCodec{tripped: make(chan struct{}), once: new(sync.Once), panics: panics}
}

func (c tripCodec) Inverse(enc []byte) ([]byte, error) {
	if len(enc) >= 4 && bytes.Equal(enc[:4], []byte{0xFF, 0xFF, 0xFF, 0xFF}) {
		c.once.Do(func() { close(c.tripped) })
		if c.panics {
			panic("injected")
		}
	}
	return c.shrinkCodec.Inverse(enc)
}

// TestDecodeAheadFaults: a chunk that fails while the output is still
// being allocated is handled as one decoded in place. A strict decode
// still names the lowest failing chunk, a partial decode zero-fills it,
// and a parity decode repairs it.
func TestDecodeAheadFaults(t *testing.T) {
	const cs, n = 1024, 12
	src := aheadTestSrc(cs, n)
	for _, nw := range []int{2, 4} {
		p := Params{ChunkSize: cs, Parallelism: nw}

		// Strict: chunks 5 and 9 fail; the error names 5.
		blob := CompressAppend(nil, src, 1, shrinkCodec{}, Params{ChunkSize: cs, Integrity: true})
		trip(t, blob, 5)
		trip(t, blob, 9)
		_, want := DecompressAppend(nil, blob, shrinkCodec{}, Params{ChunkSize: cs, Parallelism: 1})
		c := newTripCodec(false)
		grows := holdGrow(t, c.tripped)
		_, err := DecompressAppend(nil, blob, c, p)
		if g := grows.Load(); g != 1 {
			t.Errorf("%d workers, strict: %d decodes grew their output aside, want 1", nw, g)
		}
		if !errors.Is(err, ErrChunkCorrupt) || !strings.Contains(err.Error(), "chunk 5:") || err.Error() != want.Error() {
			t.Errorf("%d workers, strict: error %v, want %v", nw, err, want)
		}

		// Partial: chunk 5 is quarantined and zero-filled.
		c = newTripCodec(false)
		grows = holdGrow(t, c.tripped)
		blob = CompressAppend(nil, src, 1, shrinkCodec{}, Params{ChunkSize: cs, Integrity: true})
		trip(t, blob, 5)
		dec, rep, err := DecompressFollow(nil, blob, c, p, true, nil)
		if err != nil || grows.Load() != 1 {
			t.Fatalf("%d workers, partial: err %v, %d outputs grown aside", nw, err, grows.Load())
		}
		lo, hi := rep.Span(5)
		if rep.States[5] != ChunkQuarantined || rep.Counts().OK != n-1 {
			t.Errorf("%d workers, partial: report %s, want chunk 5 quarantined", nw, rep.Summary())
		}
		if !bytes.Equal(dec[:lo], src[:lo]) || !bytes.Equal(dec[hi:], src[hi:]) || !bytes.Equal(dec[lo:hi], make([]byte, hi-lo)) {
			t.Errorf("%d workers, partial: output is not the source with chunk 5 zero-filled", nw)
		}

		// Parity: chunk 5 is rebuilt from its group.
		c = newTripCodec(false)
		grows = holdGrow(t, c.tripped)
		blob = CompressAppend(nil, src, 1, shrinkCodec{}, Params{ChunkSize: cs, Parity: 4})
		trip(t, blob, 5)
		dec, err = DecompressAppend(nil, blob, c, p)
		if err != nil || !bytes.Equal(dec, src) || grows.Load() != 1 {
			t.Errorf("%d workers, parity: err %v, repaired output equal %v, %d outputs grown aside", nw, err, bytes.Equal(dec, src), grows.Load())
		}
	}
}

// TestDecodeAheadIdentity: decoding ahead into the arenas gives the same
// bytes for every codec interface, with the caller's prefix kept, at any
// worker count.
func TestDecodeAheadIdentity(t *testing.T) {
	const cs = 1024
	src := aheadTestSrc(cs, 20)[:20*cs-100]
	var grows atomic.Int32
	aheadGrowHook = func() {
		grows.Add(1)
		time.Sleep(5 * time.Millisecond) // the other workers decode ahead meanwhile
	}
	defer func() { aheadGrowHook = nil }()
	for _, tc := range []struct {
		name  string
		codec Codec
	}{
		{"Codec", shrinkCodec{}},
		{"IntoCodec", transformCodec{transforms.Pipeline{transforms.RAZE{}}}},
		{"SchemeCodec", schemeTestCodec{}},
	} {
		blob := CompressAppend(nil, src, 1, tc.codec, Params{ChunkSize: cs})
		for _, nw := range []int{2, 4, 8} {
			prefix := []byte("prefix")
			out, err := DecompressAppend(prefix[:len(prefix):len(prefix)], blob, tc.codec, Params{ChunkSize: cs, Parallelism: nw})
			if err != nil || !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], src) {
				t.Errorf("%s at %d workers: err %v, output differs", tc.name, nw, err)
			}
		}
	}
	if g := grows.Load(); g != 9 {
		t.Errorf("%d decodes grew their output aside, want 9", g)
	}
}

// countCodec is shrinkCodec counting its decodes.
type countCodec struct {
	shrinkCodec
	n *atomic.Int32
}

func (c countCodec) Inverse(enc []byte) ([]byte, error) {
	dec, err := c.shrinkCodec.Inverse(enc)
	c.n.Add(1)
	return dec, err
}

// TestDecodeAheadCeiling: a worker decodes at most aheadMax bytes ahead of
// the output, then waits for it.
func TestDecodeAheadCeiling(t *testing.T) {
	const cs = 64 << 10
	const held = aheadMax / cs // chunks one worker may hold
	src := aheadTestSrc(cs, held+8)
	blob := CompressAppend(nil, src, 1, shrinkCodec{}, Params{ChunkSize: cs})
	c := countCodec{n: new(atomic.Int32)}
	var grows atomic.Int32
	aheadGrowHook = func() {
		grows.Add(1)
		for deadline := time.Now().Add(5 * time.Second); c.n.Load() < held; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("%d chunks decoded ahead in 5 s, want %d", c.n.Load(), held)
				return
			}
		}
		time.Sleep(50 * time.Millisecond) // room for a decode past the ceiling
		if got := c.n.Load(); got != held {
			t.Errorf("%d chunks decoded ahead, ceiling %d", got, held)
		}
	}
	defer func() { aheadGrowHook = nil }()
	dec, err := DecompressAppend(nil, blob, c, Params{ChunkSize: cs, Parallelism: 2})
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatalf("err %v, round trip equal %v", err, bytes.Equal(dec, src))
	}
	if g := grows.Load(); g != 1 {
		t.Errorf("%d decodes grew their output aside, want 1", g)
	}
}
