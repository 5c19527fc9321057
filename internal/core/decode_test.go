package core

import (
	"bytes"
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
	prefix := []byte("prefix")
	for _, tc := range algs {
		data := tc.a.Compress(tc.src, container.Params{})
		for _, w := range []int{1, 2, 4, 8} {
			dsts := map[string][]byte{
				"nil":   nil,
				"short": append(make([]byte, 0, len(prefix)+len(tc.src)/2), prefix...),
				"warm":  append(make([]byte, 0, len(prefix)+len(tc.src)), prefix...),
			}
			for kind, dst := range dsts {
				got, err := tc.a.DecompressAppend(dst, data, container.Params{Parallelism: w})
				want := append(dst[:len(dst):len(dst)], tc.src...)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s, %d workers, %s dst: err %v, output differs", tc.a.Name(), w, kind, err)
				}
			}
		}
	}
}

// TestPreGrowKeepsErrors: sizing DPratio's output from the container's
// declared length changes no outcome. A stream whose own length prefix
// disagrees with that length decodes or fails as at one worker, where
// nothing is grown ahead, and a declared size over the budget fails with
// ErrBudget before the output is allocated.
func TestPreGrowKeepsErrors(t *testing.T) {
	src := smoothDP(64<<10, 23) // 512 KiB
	a, _ := New(DPratio)
	stream := a.Pre.ForwardWorkers(nil, src, 1)
	for _, delta := range []int{-8, -1, 1, 8, 4096} {
		bad := append([]byte(nil), stream...)
		wordio.PutU64(bad, 0, uint64(len(src)+delta))
		data := container.Compress(bad, byte(DPratio), a.ChunkCodec(), container.Params{})
		want, wantErr := a.Decompress(data, container.Params{Parallelism: 1})
		for _, w := range []int{2, 4} {
			got, err := a.Decompress(data, container.Params{Parallelism: w})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
				t.Errorf("length prefix %+d, %d workers: err %v, want %v", delta, w, err, wantErr)
			}
			if delta > 0 && !errors.Is(err, transforms.ErrCorrupt) {
				t.Errorf("length prefix %+d, %d workers: err %v, want ErrCorrupt", delta, w, err)
			}
		}
	}

	data := a.Compress(src, container.Params{})
	p := container.Params{Parallelism: 2, MaxDecoded: len(src) / 2}
	if _, err := a.Decompress(data, p); !errors.Is(err, container.ErrBudget) {
		t.Fatalf("over budget: err %v, want ErrBudget", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 8 {
		a.Decompress(data, p)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 8; per > uint64(len(src))/8 {
		t.Errorf("over budget: %d bytes allocated per refused decode", per)
	}
}

// TestPreGrowNeedsParse: DPratio grows its output ahead only from a
// container that parses. A header whose declared length disagrees with
// its chunk table, or a container cut short, fails with the container's
// ErrFormat at two workers as at one, under the default budget and
// without one, and allocates nothing near the declared size.
func TestPreGrowNeedsParse(t *testing.T) {
	a, _ := New(DPratio)
	const declared = 8 + 64<<20 // an FCM stream of 32 MiB of words
	sizes := []int{8, 8}
	raw := []bool{false, false}
	whole := container.Assemble(byte(DPratio), 0, declared, 8+32<<20, sizes, raw, make([]byte, 16))
	cases := map[string][]byte{
		// Two chunks of 16 KiB cannot hold 64 MiB.
		"length disagrees": container.Assemble(byte(DPratio), 0, declared, 16<<10, sizes, raw, make([]byte, 16)),
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
