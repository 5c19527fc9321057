package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpcompress/internal/container"
	"fpcompress/internal/transforms"
	"fpcompress/internal/transforms/fused"
	"fpcompress/internal/wordio"
)

// followSrc is 512 KiB of double-precision data with far repeats, and its
// DPratio FCM stream: 1 MiB and 8 bytes, 65 container chunks, of which
// 32 to 64 hold the distance words.
func followSrc(t *testing.T) (a *Algorithm, src, stream []byte) {
	t.Helper()
	src = smoothDP(64<<10, 31)
	copy(src[len(src)/2:], src) // far repeats give FCM distance chains
	a, _ = New(DPratio)
	return a, src, a.Pre.ForwardWorkers(nil, src, 1)
}

// withDistanceError is stream with word 0's distance set to 1, beyond its
// index; the word sits in chunk 32, the first distance chunk.
func withDistanceError(stream []byte) []byte {
	bad := bytes.Clone(stream)
	n := (len(stream) - 8) / 16
	wordio.PutU64(bad[8+8*n:], 0, 1)
	return bad
}

// corruptChunks flips a byte in the stored bytes of each named chunk.
func corruptChunks(t *testing.T, data []byte, chunks ...int) {
	t.Helper()
	h, err := container.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range chunks {
		b, _, err := h.ChunkPayload(i)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x5A
	}
}

// TestPreFollowKeepsErrors: resolving the FCM stream behind the chunk
// decode changes no error. A container failure keeps precedence over an
// FCM error that the resolver has already met, and a strict decode still
// names the lowest failing chunk, a distance chunk behind the resolver
// included. A v1 container whose whole-input CRC fails is ErrChecksum
// although its chunks decode and resolve. A distance beyond its index in
// a container that verifies is FCM's own error.
func TestPreFollowKeepsErrors(t *testing.T) {
	a, _, stream := followSrc(t)
	bad := withDistanceError(stream)
	_, fcmErr := a.Pre.InverseInto(nil, bad, transforms.NoLimit)
	if !errors.Is(fcmErr, transforms.ErrCorrupt) {
		t.Fatalf("FCM error %v, want ErrCorrupt", fcmErr)
	}
	integrity := container.Params{Integrity: true}
	behindBad := container.CompressAppend(nil, bad, byte(DPratio), a.ChunkCodec(), integrity)
	corruptChunks(t, behindBad, 40, 60)
	behindGood := container.CompressAppend(nil, stream, byte(DPratio), a.ChunkCodec(), integrity)
	corruptChunks(t, behindGood, 40, 60)
	_, chunkErr := container.DecompressAppend(nil, behindGood, a.ChunkCodec(), container.Params{Parallelism: 1, MaxDecoded: -1})
	if !errors.Is(chunkErr, container.ErrChunkCorrupt) || !strings.Contains(chunkErr.Error(), "chunk 40") {
		t.Fatalf("container error %v, want chunk 40 corrupt", chunkErr)
	}

	// v1: every chunk decodes, the CRC (header bytes 6–9) is the clean
	// stream's.
	crcBad := container.CompressAppend(nil, bad, byte(DPratio), a.ChunkCodec(), container.Params{})
	binary.LittleEndian.PutUint32(crcBad[6:], container.ChecksumOf(stream))

	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"distance error", container.CompressAppend(nil, bad, byte(DPratio), a.ChunkCodec(), integrity), fcmErr},
		{"chunks 40 and 60 corrupt", behindGood, chunkErr},
		{"chunks 40 and 60 corrupt, distance error", behindBad, chunkErr},
		{"v1 CRC mismatch, distance error", crcBad, container.ErrChecksum},
	} {
		for _, w := range decodeWorkers {
			for _, dst := range dstKinds(len(stream) / 2) {
				_, err := a.DecompressAppend(dst.b, tc.data, container.Params{Parallelism: w})
				if tc.want == container.ErrChecksum {
					if !errors.Is(err, container.ErrChecksum) {
						t.Errorf("%s, %d workers, %s dst: err %v, want ErrChecksum", tc.name, w, dst.name, err)
					}
				} else if fmt.Sprint(err) != fmt.Sprint(tc.want) {
					t.Errorf("%s, %d workers, %s dst: err %v, want %v", tc.name, w, dst.name, err, tc.want)
				}
			}
		}
	}
}

// TestPreFollowRepairs: a degraded container still fails a partial
// decode with ErrPreStagePartial, and a chunk repaired from parity, which
// lands only after the chunk decode, still decodes to the source.
func TestPreFollowRepairs(t *testing.T) {
	a, src, stream := followSrc(t)
	damaged := container.CompressAppend(nil, stream, byte(DPratio), a.ChunkCodec(), container.Params{Integrity: true})
	corruptChunks(t, damaged, 40)
	repairable := container.CompressAppend(nil, stream, byte(DPratio), a.ChunkCodec(), container.Params{Parity: 4})
	corruptChunks(t, repairable, 40)
	for _, w := range decodeWorkers {
		p := container.Params{Parallelism: w}
		for _, dst := range dstKinds(len(src)) {
			_, rep, err := a.DecompressPartialAppend(dst.b, damaged, p)
			if !errors.Is(err, ErrPreStagePartial) || rep == nil || rep.States[40] != container.ChunkQuarantined {
				t.Errorf("partial, %d workers, %s dst: err %v, want ErrPreStagePartial with chunk 40 quarantined", w, dst.name, err)
			}
			want := append(dst.b[:len(dst.b):len(dst.b)], src...)
			got, err := a.DecompressAppend(dst.b, repairable, p)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("parity repair, %d workers, %s dst: err %v, output differs", w, dst.name, err)
			}
			got, rep, err = a.DecompressPartialAppend(dst.b, repairable, p)
			if err != nil || !bytes.Equal(got, want) || rep.States[40] != container.ChunkRepaired {
				t.Errorf("partial parity repair, %d workers, %s dst: err %v, output differs", w, dst.name, err)
			}
		}
	}
}

// panicAt is a chunk transform that panics on its call number at and
// otherwise decodes as the one it wraps.
type panicAt struct {
	transforms.Transform
	calls *atomic.Int32
	at    int32
}

func (p panicAt) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	if p.calls.Add(1) == p.at {
		panic("injected")
	}
	return p.Transform.InverseInto(dst, enc, maxDecoded)
}

// TestPreFollowPanic: a codec panic on a distance chunk, while the stream
// resolves behind the decode, reaches the caller; no goroutine outlives
// the call, and the next decode on the pooled state is exact.
func TestPreFollowPanic(t *testing.T) {
	a, src, _ := followSrc(t)
	data := a.Compress(src, container.Params{})
	base := runtime.NumGoroutine()
	for _, w := range decodeWorkers {
		for _, dst := range dstKinds(len(src)) {
			faulty := *a
			faulty.Chunked = transforms.Pipeline{panicAt{fused.Match(a.Chunked), new(atomic.Int32), 48}}
			r := func() (r any) {
				defer func() { r = recover() }()
				faulty.DecompressAppend(dst.b, data, container.Params{Parallelism: w})
				return nil
			}()
			if r != "injected" {
				t.Errorf("%d workers, %s dst: recovered %v, want the injected panic", w, dst.name, r)
			}
			want := append(dst.b[:len(dst.b):len(dst.b)], src...)
			if got, err := a.DecompressAppend(dst.b, data, container.Params{Parallelism: w}); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%d workers, %s dst, after the panic: err %v, output differs", w, dst.name, err)
			}
		}
	}
	// An exiting goroutine may still count for a moment after the call.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panics, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// TestPreFollowResolvesAhead: the follower resolves every word whose
// distance word has landed, in steps of resolveStep bytes of the stream,
// straight into dst's room (where the build lets words alias bytes;
// otherwise they are stored there at the end), so a whole stream reported
// chunk by chunk is resolved before finish, which then only copies the
// tail.
func TestPreFollowResolvesAhead(t *testing.T) {
	_, src, stream := followSrc(t)
	src = src[:len(src)-3] // a tail that does not fill a word
	stream = transforms.FCM{}.ForwardWorkers(nil, src, 1)
	words := len(src) / 8
	f := &preFollow{dst: make([]byte, 0, len(src)), budget: transforms.NoLimit}
	out := f.dst[:len(src)]
	_, aliased := wordio.View64(out)
	steps := 0
	for n := 0; n < len(stream); {
		n = min(n+container.DefaultChunkSize, len(stream))
		at := f.at
		f.follow(stream, n)
		if f.at == at {
			continue
		}
		steps++
		if n < len(stream) && f.at-at < resolveStep {
			t.Errorf("resolved at %d bytes, %d after the last step", n, f.at-at)
		}
		if ready := min(words, max(0, (n-8)/8-words)); aliased && !bytes.Equal(out[:8*ready], src[:8*ready]) {
			t.Fatalf("after %d bytes: the %d words whose distance landed are not resolved", n, ready)
		}
	}
	if want := (len(stream) + resolveStep - 1) / resolveStep; steps != want {
		t.Errorf("%d resolving steps, want %d", steps, want)
	}
	got, err := f.finish(stream)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("finish: err %v, output differs", err)
	}
}
