package transforms

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"fpcompress/internal/sdr"
	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// fcmForwardOracle defines the FCM encoding with no sort and no table:
// each word scans every earlier position, nearest first, collects up to
// window whose context hash equals its own, and references the first of
// them holding an equal value; a word with no such reference is a literal.
func fcmForwardOracle(src []byte, window int) []byte {
	n := len(src) / 8
	words := wordio.Words64(src[:n*8], false)
	hashes := make([]uint64, n)
	simd.FCMHash64(hashes, append(make([]uint64, 3), words...))
	vals, dists := make([]uint64, n), make([]uint64, n)
	for i, v := range words {
		vals[i] = v
		seen := 0
		for j := i - 1; j >= 0 && seen < window; j-- {
			if hashes[j] != hashes[i] {
				continue
			}
			seen++
			if words[j] == v {
				vals[i], dists[i] = 0, uint64(i-j)
				break
			}
		}
	}
	out := make([]byte, fcmHeaderLen, fcmHeaderLen+2*n*8+len(src)-n*8)
	wordio.PutU64(out, 0, uint64(len(src)))
	out = append(out, wordio.Bytes64(vals, n*8)...)
	out = append(out, wordio.Bytes64(dists, n*8)...)
	return append(out, src[n*8:]...)
}

// fcmEncoderCorpus is the encoder's seed set: the Figure 6 sequence,
// degenerate and periodic streams, inputs too short for a full context,
// odd trailing bytes, and slices of the synthetic double-precision suite.
func fcmEncoderCorpus() [][]byte {
	a, b, c := math.Float64bits(1.5), math.Float64bits(2.5), math.Float64bits(3.5)
	words := func(n int, f func(i int) uint64) []byte {
		w := make([]uint64, n)
		for i := range w {
			w[i] = f(i)
		}
		return wordio.Bytes64(w, n*8)
	}
	corpus := [][]byte{
		wordio.Bytes64([]uint64{a, b, a, b, c, a, b}, 56),
		words(300, func(int) uint64 { return a }),
		words(300, func(i int) uint64 { return uint64(i) }),
		words(0, nil),
		words(1, func(int) uint64 { return a }),
		words(3, func(int) uint64 { return a }),
		{1, 2, 3, 4, 5},
		append(smoothFloats64(100, 4), 7, 8, 9),
	}
	for _, period := range []int{2, 3, 5} {
		corpus = append(corpus, words(300, func(i int) uint64 { return uint64(i % period) }))
	}
	files := sdr.DoubleFiles(sdr.Config{ValuesPerFile: 2048})
	for _, f := range files[:4] {
		corpus = append(corpus, f.Data)
	}
	return corpus
}

// FuzzFCMForward checks the whole-input encoder byte for byte against the
// oracle at several match windows.
func FuzzFCMForward(f *testing.F) {
	for _, src := range fcmEncoderCorpus() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		// The oracle is quadratic; 4096 words keep an execution fast.
		src = src[:min(len(src), 4096*8)]
		for _, w := range []int{1, 4, 16} {
			if got, want := (FCM{Window: w}).Forward(src), fcmForwardOracle(src, w); !bytes.Equal(got, want) {
				t.Fatalf("window %d, %d bytes: encoder differs from oracle", w, len(src))
			}
		}
	})
}

// TestFCMSlotSeedIndependent pins that the chain table's slot seed only
// places hashes: two seeds give identical bytes.
func TestFCMSlotSeedIndependent(t *testing.T) {
	defer func(s uint64) { fcmSlotSeed = s }(fcmSlotSeed)
	for i, src := range fcmEncoderCorpus() {
		fcmSlotSeed = 0
		want := FCM{}.Forward(src)
		fcmSlotSeed = 0x9e3779b97f4a7c15
		if got := (FCM{}).Forward(src); !bytes.Equal(got, want) {
			t.Errorf("corpus entry %d: output depends on the slot seed", i)
		}
	}
}

// TestFCMResolveWorkers pins the decoder's parallel gate: a cap of one
// worker, or an input below the threshold, resolves sequentially.
func TestFCMResolveWorkers(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{fcmParallelMin, 1, 1},
		{fcmParallelMin - 1, 8, 1},
		{fcmParallelMin, 2, 2},
		{fcmParallelMin, 0, runtime.GOMAXPROCS(0)},
	} {
		if got := fcmResolveWorkers(tc.n, tc.workers); got != tc.want {
			t.Errorf("fcmResolveWorkers(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// TestFCMInverseWorkersIdentical decodes one encoding above the parallel
// threshold at several worker caps: the bytes never change.
func TestFCMInverseWorkersIdentical(t *testing.T) {
	src := append(smoothFloats64(fcmParallelMin+1234, 6), 1, 2, 3)
	copy(src[len(src)/2:], src) // far repeats give long distance chains
	enc := FCM{}.Forward(src)
	for _, w := range []int{1, 2, 0} {
		got, err := FCM{}.InverseWorkers(nil, enc, NoLimit, w)
		if err != nil || !bytes.Equal(got, src) {
			t.Errorf("workers %d: decode differs (err %v)", w, err)
		}
	}
}
