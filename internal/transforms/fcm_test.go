package transforms

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

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

// withFCMTuning lowers the whole-input encoder's worker gate and
// partition size for one test, so that small inputs take the partitioned
// and parallel paths.
func withFCMTuning(tb testing.TB, parallelMin, partWords int) {
	m, w := fcmParallelMin, fcmPartWords
	tb.Cleanup(func() { fcmParallelMin, fcmPartWords = m, w })
	fcmParallelMin, fcmPartWords = parallelMin, partWords
}

// FuzzFCMForward checks the whole-input encoder byte for byte against the
// oracle at several match windows and at 1, 2 and 3 workers. The worker
// gate and partition size are lowered so that inputs from 64 words run in
// several partitions, and from 1024 words do so at one worker too.
func FuzzFCMForward(f *testing.F) {
	for _, src := range fcmEncoderCorpus() {
		f.Add(src)
	}
	withFCMTuning(f, 64, 16)
	f.Fuzz(func(t *testing.T, src []byte) {
		// The oracle is quadratic; 4096 words keep an execution fast.
		src = src[:min(len(src), 4096*8)]
		for _, w := range []int{1, 4, 16} {
			want := fcmForwardOracle(src, w)
			for _, workers := range []int{1, 2, 3} {
				if got := (FCM{Window: w}).ForwardWorkers(nil, src, workers); !bytes.Equal(got, want) {
					t.Fatalf("window %d, %d workers, %d bytes: encoder differs from oracle", w, workers, len(src))
				}
			}
		}
	})
}

// TestFCMSlotSeedIndependent pins that the slot seed, which places hashes
// in the join tables and picks each word's partition, never changes the
// bytes: two seeds give identical output, on the corpus and on an input
// that runs in many partitions.
func TestFCMSlotSeedIndependent(t *testing.T) {
	defer func(s uint64) { fcmSlotSeed = s }(fcmSlotSeed)
	corpus := append(fcmEncoderCorpus(), smoothFloats64(3*fcmParallelMin, 7))
	for i, src := range corpus {
		fcmSlotSeed = 0
		want := FCM{}.ForwardWorkers(nil, src, 2)
		fcmSlotSeed = 0x9e3779b97f4a7c15
		if got := (FCM{}).ForwardWorkers(nil, src, 2); !bytes.Equal(got, want) {
			t.Errorf("corpus entry %d: output depends on the slot seed", i)
		}
	}
}

// TestFCMDecodedLen: DecodedLen inverts the encoded length for every
// tail length, and refuses the lengths no stream has.
func TestFCMDecodedLen(t *testing.T) {
	for n := range 50 {
		if got := (FCM{}).DecodedLen(len(FCM{}.ForwardInto(nil, make([]byte, n)))); got != n {
			t.Errorf("%d bytes encode to a stream DecodedLen reads as %d", n, got)
		}
	}
	for _, enc := range []int{0, 7, 8 + 8, 8 + 15, 8 + 16 + 12} {
		if got := (FCM{}).DecodedLen(enc); got != -1 {
			t.Errorf("DecodedLen(%d) = %d, want -1", enc, got)
		}
	}
}

// TestFCMWorkers pins the encoder's parallel gate: a cap of one worker,
// or an input below the threshold, runs on one.
func TestFCMWorkers(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{fcmParallelMin, 1, 1},
		{fcmParallelMin - 1, 8, 1},
		{fcmParallelMin, 2, 2},
		{fcmParallelMin, 0, runtime.GOMAXPROCS(0)},
	} {
		if got := fcmWorkers(tc.n, tc.workers); got != tc.want {
			t.Errorf("fcmWorkers(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// TestFCMInverseWorkersIdentical decodes one encoding above the encoder's
// parallel gate, smooth data (with a 3-byte tail) whose second half
// repeats its first, at GOMAXPROCS 1, 2 and the default: the decode does
// not depend on how many workers could run, and gives back the source
// fresh and appended to a non-empty dst.
func TestFCMInverseWorkersIdentical(t *testing.T) {
	src := append(smoothFloats64(fcmParallelMin+1234, 6), 1, 2, 3)
	copy(src[len(src)/2:], src) // far repeats give long distance chains
	enc := FCM{}.ForwardInto(nil, src)
	prefix := []byte("prefix")
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		old := runtime.GOMAXPROCS(w)
		got, err := FCM{}.InverseInto(nil, enc, NoLimit)
		app, appErr := FCM{}.InverseInto(slices.Clone(prefix), enc, NoLimit)
		runtime.GOMAXPROCS(old)
		if err != nil || !bytes.Equal(got, src) {
			t.Errorf("GOMAXPROCS %d: decode differs (err %v)", w, err)
		}
		if appErr != nil || !bytes.Equal(app[:len(prefix)], prefix) || !bytes.Equal(app[len(prefix):], src) {
			t.Errorf("GOMAXPROCS %d: appending decode differs (err %v)", w, appErr)
		}
	}
}

// TestFCMForwardWorkersIdentical encodes inputs on both sides of the
// parallel gate at several worker caps, and again with a partition size
// small enough that one worker partitions too: the bytes never change.
// The constant and periodic inputs have a handful of contexts, so nearly
// every word lands in one partition.
func TestFCMForwardWorkersIdentical(t *testing.T) {
	words := func(n int, f func(i int) uint64) []byte {
		w := make([]uint64, n)
		for i := range w {
			w[i] = f(i)
		}
		return wordio.Bytes64(w, n*8)
	}
	repeats := append(smoothFloats64(fcmParallelMin+1234, 6), 1, 2, 3)
	copy(repeats[len(repeats)/2:], repeats) // far repeats give long distances
	inputs := []struct {
		name string
		src  []byte
	}{
		{"below gate", smoothFloats64(fcmParallelMin-1, 5)},
		{"above gate", repeats},
		{"constant", words(fcmParallelMin+5, func(int) uint64 { return 7 })},
		{"periodic", words(fcmParallelMin+5, func(i int) uint64 { return uint64(i % 3) })},
	}
	for _, in := range inputs {
		want := FCM{}.ForwardWorkers(nil, in.src, 1)
		for _, w := range []int{2, 3, 0} {
			if got := (FCM{}).ForwardWorkers(nil, in.src, w); !bytes.Equal(got, want) {
				t.Errorf("%s, %d workers: encoding differs from one worker", in.name, w)
			}
		}
		t.Run(in.name+"/small partitions", func(t *testing.T) {
			withFCMTuning(t, fcmParallelMin, 64)
			for _, w := range []int{1, 2, 3} {
				if got := (FCM{}).ForwardWorkers(nil, in.src, w); !bytes.Equal(got, want) {
					t.Errorf("%d workers: encoding differs from one worker", w)
				}
			}
		})
	}
}

// TestFCMForwardWideIndex runs the 64-bit-position encoder, which inputs
// past fcmNarrowMax words take, on the corpus and on small partitions: its
// bytes equal the 32-bit one's. The limit leaves room for the tables'
// index+1 entries in 32 bits.
func TestFCMForwardWideIndex(t *testing.T) {
	if uint64(fcmNarrowMax)+1 > math.MaxUint32 {
		t.Fatalf("fcmNarrowMax %d leaves no room for index+1 in 32 bits", uint64(fcmNarrowMax))
	}
	withFCMTuning(t, 64, 16)
	corpus := append(fcmEncoderCorpus(), smoothFloats64(5000, 8))
	for i, src := range corpus {
		sw := wordio.Words64(src[:len(src)/8*8], false)
		for _, workers := range []int{1, 2, 3} {
			var out [2][2][]uint64
			for k := range out {
				out[k] = [2][]uint64{make([]uint64, len(sw)), make([]uint64, len(sw))}
			}
			fcmForward[uint32](out[0][0], out[0][1], sw, fcmWindow, workers)
			fcmForward[uint64](out[1][0], out[1][1], sw, fcmWindow, workers)
			if !slices.Equal(out[0][0], out[1][0]) || !slices.Equal(out[0][1], out[1][1]) {
				t.Errorf("corpus entry %d, %d workers: 64-bit positions change the encoding", i, workers)
			}
		}
	}
}

// TestFCMJoinGrows starts a join's table far too small for its distinct
// hashes, as in a partition skewed past its share, so the table grows
// many times: the output equals a join sized for every word.
func TestFCMJoinGrows(t *testing.T) {
	src := smoothFloats64(5000, 9)
	copy(src[len(src)/2:], src)
	sw := wordio.Words64(src, false)
	hw := make([]uint64, len(sw))
	fcmContextHashes(hw, sw, 0)
	var out [2][2][]uint64
	for k, expect := range []int{len(sw), 1} {
		out[k] = [2][]uint64{make([]uint64, len(sw)), make([]uint64, len(sw))}
		var j fcmJoin[uint32]
		j.start(len(sw), expect)
		fcmJoinPart(&j, hw, sw, out[k][0], out[k][1], fcmWindow)
		j.release()
	}
	if !slices.Equal(out[0][0], out[1][0]) || !slices.Equal(out[0][1], out[1][1]) {
		t.Error("a growing join table changes the encoding")
	}
}

// TestFCMTeamPanic: a block that panics on any of the encoder's team
// goroutines ends the team, with the panic raised on the caller, and no
// goroutine keeps waiting for the step the block left unfinished.
func TestFCMTeamPanic(t *testing.T) {
	both := make(chan struct{})
	var entered atomic.Int32
	var after atomic.Int32
	r := func() (r any) {
		defer func() { r = recover() }()
		fcmTeam(2,
			fcmStep{blocks: 4, do: func(_, b int) {
				if b > 1 {
					return
				}
				// Blocks 0 and 1 panic once both have started, so one of
				// the panics is raised on the goroutine fcmTeam spawned.
				if entered.Add(1) == 2 {
					close(both)
				} else {
					select {
					case <-both:
					case <-time.After(5 * time.Second):
					}
				}
				panic("injected")
			}},
			fcmStep{blocks: 1, do: func(int, int) { after.Add(1) }},
		)
		return nil
	}()
	if r != "injected" {
		t.Fatalf("recovered %v, want the injected panic", r)
	}
	if n := after.Load(); n != 0 {
		t.Errorf("the step after the failed one ran %d blocks, want 0", n)
	}
}
