package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"fpcompress/internal/container"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// TestDecompressAppendDstKinds: the decoded bytes do not depend on what
// dst offers (nothing, too little room behind a prefix, or enough room)
// nor on the worker count, so a fresh output that is grown while chunks
// decode matches one decoded in place.
func TestDecompressAppendDstKinds(t *testing.T) {
	sp := smoothSP(160<<10, 21) // 640 KiB: 40 chunks
	dp := smoothDP(80<<10, 22)  // 640 KiB
	copy(dp[len(dp)/2:], dp)    // far repeats give FCM distance chains
	windowed, err := NewWindowed(DPratio)
	if err != nil {
		t.Fatal(err)
	}
	algs := []struct {
		a   *Algorithm
		src []byte
	}{{windowed, dp}}
	for _, id := range []ID{SPspeed, DPratio, Auto32, Auto64} {
		a, _ := New(id)
		src := sp
		if a.Word == wordio.W64 {
			src = dp
		}
		algs = append(algs, struct {
			a   *Algorithm
			src []byte
		}{a, src})
	}
	for _, tc := range algs {
		data := tc.a.Compress(tc.src, container.Params{})
		for _, w := range decodeWorkers {
			for _, dst := range dstKinds(len(tc.src)) {
				got, err := tc.a.DecompressAppend(dst.b, data, container.Params{Parallelism: w})
				want := append(dst.b[:len(dst.b):len(dst.b)], tc.src...)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s, %d workers, %s dst: err %v, output differs", tc.a.Name(), w, dst.name, err)
				}
			}
		}
	}
}

// decodeWorkers are the worker counts the decode tests run at.
var decodeWorkers = []int{1, 2, 4, 8}

// dstKinds are what a decode of n bytes may append to: nothing, a prefix
// with room for half the output, and a prefix with room for all of it.
func dstKinds(n int) []struct {
	name string
	b    []byte
} {
	prefix := []byte("prefix")
	return []struct {
		name string
		b    []byte
	}{
		{"nil", nil},
		{"short", append(make([]byte, 0, len(prefix)+n/2), prefix...)},
		{"warm", append(make([]byte, 0, len(prefix)+n), prefix...)},
	}
}

// TestPreGrowKeepsErrors: sizing DPratio's output from the container's
// declared length changes no outcome. A stream whose own length prefix
// disagrees with that length decodes or fails as FCM's InverseInto does
// on the bare stream, and a declared size over the budget fails with
// ErrBudget before the output is allocated.
func TestPreGrowKeepsErrors(t *testing.T) {
	src := smoothDP(64<<10, 23) // 512 KiB
	a, _ := New(DPratio)
	stream := a.Pre.ForwardWorkers(nil, src, 1)
	for _, delta := range []int{-8, -1, 1, 8, 4096} {
		bad := append([]byte(nil), stream...)
		wordio.PutU64(bad, 0, uint64(len(src)+delta))
		data := container.CompressAppend(nil, bad, byte(DPratio), a.ChunkCodec(), container.Params{})
		for _, w := range decodeWorkers {
			for _, dst := range dstKinds(len(src)) {
				want, wantErr := a.Pre.InverseInto(dst.b[:len(dst.b):len(dst.b)], bad, container.DefaultMaxDecoded)
				got, err := a.DecompressAppend(dst.b, data, container.Params{Parallelism: w})
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
					t.Errorf("length prefix %+d, %d workers, %s dst: err %v, want %v", delta, w, dst.name, err, wantErr)
				}
				if delta > 0 && !errors.Is(err, transforms.ErrCorrupt) {
					t.Errorf("length prefix %+d, %d workers, %s dst: err %v, want ErrCorrupt", delta, w, dst.name, err)
				}
			}
		}
	}

	data := a.Compress(src, container.Params{})
	for _, w := range decodeWorkers {
		for _, dst := range dstKinds(len(src)) {
			p := container.Params{Parallelism: w, MaxDecoded: len(src) / 2}
			if _, err := a.DecompressAppend(dst.b, data, p); !errors.Is(err, container.ErrBudget) {
				t.Fatalf("over budget, %d workers, %s dst: err %v, want ErrBudget", w, dst.name, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 8 {
				a.DecompressAppend(dst.b, data, p)
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / 8; per > uint64(len(src))/8 {
				t.Errorf("over budget, %d workers, %s dst: %d bytes allocated per refused decode", w, dst.name, per)
			}
		}
	}
}

// twoChunkV1 lays out by hand, as FORMAT.md gives version 1, a DPratio
// container that declares length bytes in chunks of cs bytes, with a zero
// CRC and two encoded chunks of 8 zero bytes each: a header the engine
// never writes.
func twoChunkV1(length, cs int) []byte {
	b := append([]byte("FPCZ"), 1, byte(DPratio), 0, 0, 0, 0)
	for _, v := range []int{length, cs, 2, 8<<1 | 1, 8<<1 | 1} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return append(b, make([]byte, 16)...)
}

// TestPreGrowNeedsParse: DPratio grows its output ahead only from a
// container that parses. A header whose declared length disagrees with
// its chunk table, or a container cut short, fails with the container's
// ErrFormat at two workers as at one, under the default budget and
// without one, and allocates nothing near the declared size.
func TestPreGrowNeedsParse(t *testing.T) {
	a, _ := New(DPratio)
	const declared = 8 + 64<<20 // an FCM stream of 32 MiB of words
	whole := twoChunkV1(declared, 8+32<<20)
	cases := map[string][]byte{
		// Two chunks of 16 KiB cannot hold 64 MiB.
		"length disagrees": twoChunkV1(declared, 16<<10),
		// Two chunks of 32 MiB and 8 bytes hold it, but their bytes are cut short.
		"truncated": whole[:len(whole)-6],
	}
	for name, data := range cases {
		if _, _, err := container.DeclaredSize(data); err != nil {
			t.Fatalf("%s: DeclaredSize: %v", name, err)
		}
		for _, budget := range []int{0, -1} {
			_, want := a.Decompress(data, container.Params{Parallelism: 1, MaxDecoded: budget})
			p := container.Params{Parallelism: 2, MaxDecoded: budget}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := a.Decompress(data, p)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, container.ErrFormat) || fmt.Sprint(err) != fmt.Sprint(want) {
				t.Errorf("%s, budget %d: err %v, want %v", name, budget, err, want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%s, budget %d: %d bytes allocated by a refused decode", name, budget, got)
			}
		}
	}
}
