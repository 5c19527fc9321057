package transforms

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"fpcompress/internal/wordio"
)

// allTransforms returns every transform at both word sizes where relevant.
func allTransforms() []Transform {
	return []Transform{
		DiffMS{Word: wordio.W32},
		DiffMS{Word: wordio.W64},
		Bit{Word: wordio.W32},
		Bit{Word: wordio.W64},
		MPLG{Word: wordio.W32},
		MPLG{Word: wordio.W64},
		RZE{},
		RAZE{},
		RARE{},
		FCM{},
	}
}

// smoothFloats32 generates a smooth single-precision byte stream.
func smoothFloats32(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n*4)
	v := 100.0
	for i := 0; i < n; i++ {
		v += math.Sin(float64(i)/50) + rng.NormFloat64()*0.01
		wordio.PutU32(b, i, math.Float32bits(float32(v)))
	}
	return b
}

// smoothFloats64 generates a smooth double-precision byte stream.
func smoothFloats64(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n*8)
	v := 1e6
	for i := 0; i < n; i++ {
		v += math.Cos(float64(i)/30)*10 + rng.NormFloat64()*0.1
		wordio.PutU64(b, i, math.Float64bits(v))
	}
	return b
}

func roundtrip(t *testing.T, tr Transform, src []byte) {
	t.Helper()
	enc := tr.ForwardInto(nil, src)
	dec, err := tr.InverseInto(nil, enc, NoLimit)
	if err != nil {
		t.Fatalf("%s: inverse error on %d bytes: %v", tr.Name(), len(src), err)
	}
	if !bytes.Equal(dec, src) {
		i := 0
		for i < len(src) && i < len(dec) && src[i] == dec[i] {
			i++
		}
		t.Fatalf("%s: roundtrip mismatch on %d bytes at offset %d (got %d bytes back)",
			tr.Name(), len(src), i, len(dec))
	}
}

func TestRoundtripEmpty(t *testing.T) {
	for _, tr := range allTransforms() {
		roundtrip(t, tr, []byte{})
	}
}

func TestRoundtripSizes(t *testing.T) {
	// Exercise word-boundary edge cases, partial subchunks and tails.
	sizes := []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 31, 63, 64, 65, 127, 128,
		255, 256, 257, 511, 512, 513, 1023, 4096, 16384, 16385, 16383}
	rng := rand.New(rand.NewSource(42))
	for _, n := range sizes {
		src := make([]byte, n)
		rng.Read(src)
		for _, tr := range allTransforms() {
			roundtrip(t, tr, src)
		}
	}
}

func TestRoundtripAllZero(t *testing.T) {
	src := make([]byte, 16384)
	for _, tr := range allTransforms() {
		roundtrip(t, tr, src)
	}
}

func TestRoundtripAllOnes(t *testing.T) {
	src := bytes.Repeat([]byte{0xFF}, 16384)
	for _, tr := range allTransforms() {
		roundtrip(t, tr, src)
	}
}

func TestRoundtripSmoothData(t *testing.T) {
	sp := smoothFloats32(4096, 1)
	dp := smoothFloats64(2048, 2)
	for _, tr := range allTransforms() {
		roundtrip(t, tr, sp)
		roundtrip(t, tr, dp)
	}
}

func TestRoundtripQuick(t *testing.T) {
	for _, tr := range allTransforms() {
		tr := tr
		t.Run(tr.Name(), func(t *testing.T) {
			f := func(src []byte) bool {
				enc := tr.ForwardInto(nil, src)
				dec, err := tr.InverseInto(nil, enc, NoLimit)
				return err == nil && bytes.Equal(dec, src)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestZigZagProperties(t *testing.T) {
	f32 := func(x uint32) bool { return wordio.UnZigZag32(wordio.ZigZag32(x)) == x }
	f64 := func(x uint64) bool { return wordio.UnZigZag64(wordio.ZigZag64(x)) == x }
	if err := quick.Check(f32, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(f64, nil); err != nil {
		t.Error(err)
	}
	// Small-magnitude values (positive or negative) map to small codes with
	// leading zeros — the property DIFFMS relies on.
	for _, d := range []int32{-4, -1, 0, 1, 4} {
		z := wordio.ZigZag32(uint32(d))
		if z > 8 {
			t.Errorf("zigzag(%d) = %d, want <= 8", d, z)
		}
	}
}

// TestDiffMSPaperExample checks DIFFMS against the worked example of
// Figure 2: inputs 2.5f, 2.0f, 1.75f.
func TestDiffMSPaperExample(t *testing.T) {
	vals := []float32{2.5, 2.0, 1.75}
	src := make([]byte, 12)
	for i, v := range vals {
		wordio.PutU32(src, i, math.Float32bits(v))
	}
	enc := DiffMS{Word: wordio.W32}.ForwardInto(nil, src)

	// First value is preserved (differenced against 0) then zigzagged:
	// 0x40200000<<1 = 0x80400000.
	if got := wordio.U32(enc, 0); got != math.Float32bits(2.5)<<1 {
		t.Errorf("word 0 = %#x, want %#x", got, math.Float32bits(2.5)<<1)
	}
	// 2.0 - 2.5 bits: 0x40000000-0x40200000 = -0x200000 -> magnitude-sign
	// 0x3FFFFF (sign in LSB): zigzag(-0x200000) = 0x3FFFFF.
	if got := wordio.U32(enc, 1); got != 0x3FFFFF {
		t.Errorf("word 1 = %#x, want 0x3fffff", got)
	}
	// The transformed words must all have leading zeros or the example's
	// leading-one runs converted; word 1 and 2 were negative diffs.
	if wordio.Clz32(wordio.U32(enc, 1)) == 0 {
		t.Error("word 1 still has a leading one after magnitude-sign conversion")
	}
}

// TestMPLGCompressesLeadingZeros verifies the core MPLG property: a chunk of
// small values shrinks to roughly keep/wordsize of its size.
func TestMPLGCompressesLeadingZeros(t *testing.T) {
	src := make([]byte, 16384)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4096; i++ {
		wordio.PutU32(src, i, uint32(rng.Intn(1<<12))) // 20+ leading zeros
	}
	enc := MPLG{Word: wordio.W32}.ForwardInto(nil, src)
	if len(enc) > len(src)*14/32 {
		t.Errorf("MPLG output %d bytes for 12-bit values in %d input bytes", len(enc), len(src))
	}
	roundtrip(t, MPLG{Word: wordio.W32}, src)
}

// TestMPLGFallback exercises the enhancement: when the subchunk max has no
// leading zeros, one extra magnitude-sign conversion is applied.
func TestMPLGFallback(t *testing.T) {
	src := make([]byte, 512)
	for i := 0; i < 128; i++ {
		// 0xFFFFFFxx values: no leading zeros, but zigzag gives 0x000001xx-ish.
		wordio.PutU32(src, i, 0xFFFFFF00|uint32(i))
	}
	enc := MPLG{Word: wordio.W32}.ForwardInto(nil, src)
	if len(enc) >= len(src) {
		t.Errorf("fallback did not help: %d -> %d bytes", len(src), len(enc))
	}
	roundtrip(t, MPLG{Word: wordio.W32}, src)
}

// TestBITGroupsPlanes verifies that after BIT, the plane holding the MSBs of
// an all-small-values chunk is entirely zero.
func TestBITGroupsPlanes(t *testing.T) {
	src := make([]byte, 32*4) // one 32-word block
	for i := 0; i < 32; i++ {
		wordio.PutU32(src, i, uint32(i)) // high 27 bits zero
	}
	enc := Bit{Word: wordio.W32}.ForwardInto(nil, src)
	// Planes 0..26 (MSB-side) must be all-zero words.
	for plane := 0; plane < 27; plane++ {
		if got := wordio.U32(enc, plane); got != 0 {
			t.Errorf("plane %d = %#x, want 0", plane, got)
		}
	}
	roundtrip(t, Bit{Word: wordio.W32}, src)
}

// TestRZEZeroHeavy verifies RZE collapses a zero-dominated chunk to a small
// fraction of its size, including the recursive bitmap compression.
func TestRZEZeroHeavy(t *testing.T) {
	src := make([]byte, 16384)
	for i := 0; i < 100; i++ {
		src[16000+i*3] = byte(i + 1)
	}
	enc := RZE{}.ForwardInto(nil, src)
	// 100 data bytes + compressed bitmap; far below the naive 2048-byte
	// bitmap floor.
	if len(enc) > 700 {
		t.Errorf("RZE output %d bytes for 100 non-zero bytes", len(enc))
	}
	roundtrip(t, RZE{}, src)
}

// TestRZEBitmapRecursionDepth checks the 16384->2048->256->32-bit reduction
// of §3.2 by measuring the all-zero-input overhead: a fully zero chunk must
// compress to nearly nothing.
func TestRZEAllZeroOverhead(t *testing.T) {
	src := make([]byte, 16384)
	enc := RZE{}.ForwardInto(nil, src)
	// length prefix + ~3 recursion levels of tiny bitmaps.
	if len(enc) > 16 {
		t.Errorf("all-zero chunk encoded to %d bytes, want <= 16", len(enc))
	}
}

// TestRepeatBitmapLen pins the length-only pricing helper against the real
// encoder across bitmap shapes: all-zero, all-ones, sparse, dense-random,
// run-structured, and misaligned/odd lengths (including the <= floor case).
func TestRepeatBitmapLen(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := [][]byte{
		{}, {0xff}, make([]byte, 3), make([]byte, 4), make([]byte, 5),
		make([]byte, 2048), make([]byte, 2049), make([]byte, 777),
	}
	dense := make([]byte, 2048)
	rng.Read(dense)
	cases = append(cases, dense)
	sparse := make([]byte, 2048)
	for i := 0; i < 20; i++ {
		sparse[rng.Intn(len(sparse))] = byte(1 + rng.Intn(255))
	}
	cases = append(cases, sparse)
	runs := make([]byte, 1024)
	for i := range runs {
		if i/100%2 == 0 {
			runs[i] = 0xaa
		}
	}
	cases = append(cases, runs, runs[1:], runs[3:500])
	for i, bm := range cases {
		want := len(appendRepeatBitmap(nil, bm))
		if got := RepeatBitmapLen(bm); got != want {
			t.Errorf("case %d (len %d): RepeatBitmapLen = %d, encoder emits %d", i, len(bm), got, want)
		}
	}
}

// TestFCMPaperExample mirrors Figure 6: the sequence a b a b c a b. With a
// three-value context, the second (a,b) pair after context (a,b,a)/(b,a,b)
// repeats and must be encoded as distances, as must the final (a,b).
func TestFCMPaperExample(t *testing.T) {
	a, b, c := math.Float64bits(1.5), math.Float64bits(2.5), math.Float64bits(3.5)
	seq := []uint64{a, b, a, b, c, a, b}
	src := wordio.Bytes64(seq, len(seq)*8)
	enc := FCM{}.ForwardInto(nil, src)
	// Layout: uvarint len, then value array, then distance array.
	hn := 8 // fixed FCM header
	vals := wordio.Words64(enc[hn:hn+56], false)
	dists := wordio.Words64(enc[hn+56:hn+112], false)

	// Index 2 ("a" with context b,a,_) matches index 0 ("a" with the same
	// hash only if contexts agree) — contexts differ here, so rather than
	// asserting exact paper indices we assert the invariants: every entry is
	// either a literal (dist 0) or a valid backref to an equal value.
	for i := range seq {
		if dists[i] == 0 {
			if vals[i] != seq[i] {
				t.Errorf("index %d: literal %#x != input %#x", i, vals[i], seq[i])
			}
		} else {
			j := i - int(dists[i])
			if j < 0 || seq[j] != seq[i] {
				t.Errorf("index %d: bad backref distance %d", i, dists[i])
			}
			if vals[i] != 0 {
				t.Errorf("index %d: matched entry has non-zero value %#x", i, vals[i])
			}
		}
	}
	roundtrip(t, FCM{}, src)
}

// TestFCMFindsFarRepeats verifies the motivation for FCM: repeats thousands
// of values apart are matched, unlike with difference coding.
func TestFCMFindsFarRepeats(t *testing.T) {
	n := 10000
	words := make([]uint64, n)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n/2; i++ {
		words[i] = math.Float64bits(rng.NormFloat64())
	}
	copy(words[n/2:], words[:n/2]) // exact repeat of the first half
	src := wordio.Bytes64(words, n*8)
	enc := FCM{}.ForwardInto(nil, src)
	hn := 8 // fixed FCM header
	dists := wordio.Words64(enc[hn+n*8:hn+2*n*8], false)
	matched := 0
	for _, d := range dists[n/2:] {
		if d != 0 {
			matched++
		}
	}
	if matched < n/2*9/10 {
		t.Errorf("only %d of %d repeated values matched", matched, n/2)
	}
	roundtrip(t, FCM{}, src)
}

// TestFCMParallelDecodeMatchesSequential decodes an input above the
// encoder's parallel gate, random doubles with a third of the words
// repeating a random earlier one (long match chains), from four
// goroutines at once, fresh and appended to a non-empty dst: every
// concurrent decode matches the one-goroutine decode and the source.
func TestFCMParallelDecodeMatchesSequential(t *testing.T) {
	n := fcmParallelMin + 1234
	words := make([]uint64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range words {
		if i > 100 && rng.Intn(3) == 0 {
			words[i] = words[rng.Intn(i)] // seed long match chains
		} else {
			words[i] = math.Float64bits(rng.NormFloat64())
		}
	}
	src := wordio.Bytes64(words, n*8)
	enc := FCM{}.ForwardInto(nil, src)
	seq, err := FCM{}.InverseInto(nil, enc, NoLimit)
	if err != nil || !bytes.Equal(seq, src) {
		t.Fatalf("sequential decode differs from the source (err %v)", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prefix := []byte(fmt.Sprintf("prefix%d", g))
			got, err := FCM{}.InverseInto(prefix, enc, NoLimit)
			switch {
			case err != nil:
				errs[g] = err
			case !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], seq):
				errs[g] = errors.New("decode differs")
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestFCMRejectsBadDistance overwrites one distance of a valid encoding
// with one that reaches before the first word: at index 0, at the last
// word, and past 64 Ki words into an input above the encoder's parallel
// gate. Each decode fails with ErrCorrupt naming the distance and index.
func TestFCMRejectsBadDistance(t *testing.T) {
	big := fcmParallelMin + 77
	for _, tc := range []struct {
		n, at int
		d     uint64
	}{
		{4, 0, 99},
		{big, 0, 1},
		{big, big - 1, uint64(big)},
		{big, big - 1, math.MaxUint64},
		{big, 1 << 16, 1<<16 + 1},
	} {
		enc := FCM{}.ForwardInto(nil, smoothFloats64(tc.n, 8))
		wordio.PutU64(enc[fcmHeaderLen+tc.n*8:], tc.at, tc.d)
		_, err := FCM{}.InverseInto(nil, enc, NoLimit)
		want := fmt.Sprintf("FCM: distance %d exceeds index %d", tc.d, tc.at)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("%d words, distance %d at %d: got %v, want %q", tc.n, tc.d, tc.at, err, want)
		}
	}
}

// TestRAZEPicksGoodSplit: all values share 40 leading zero bits, so RAZE
// should spend at most ~24 bits per word plus bitmap.
func TestRAZEPicksGoodSplit(t *testing.T) {
	n := 2048
	words := make([]uint64, n)
	rng := rand.New(rand.NewSource(5))
	for i := range words {
		words[i] = uint64(rng.Int63n(1 << 24))
	}
	src := wordio.Bytes64(words, n*8)
	enc := RAZE{}.ForwardInto(nil, src)
	if len(enc) > n*25/8+n/8+64 {
		t.Errorf("RAZE output %d bytes for 24-bit values (n=%d)", len(enc), n)
	}
	roundtrip(t, RAZE{}, src)
}

// TestRAREEliminatesCommonPrefixes: words share their top 32 bits with the
// prior word, so RARE's bitmap removes nearly all top pieces.
func TestRAREEliminatesCommonPrefixes(t *testing.T) {
	n := 2048
	words := make([]uint64, n)
	rng := rand.New(rand.NewSource(6))
	base := uint64(0xDEADBEEF) << 32
	for i := range words {
		words[i] = base | uint64(rng.Uint32())
	}
	src := wordio.Bytes64(words, n*8)
	enc := RARE{}.ForwardInto(nil, src)
	// ~32 bits/word bottoms + 1 bit/word bitmap + one kept piece.
	if len(enc) > n*34/8+64 {
		t.Errorf("RARE output %d bytes, want about %d", len(enc), n*33/8)
	}
	roundtrip(t, RARE{}, src)
}

// TestPipelineInverseOrder ensures Pipeline applies inverses in reverse.
func TestPipelineInverseOrder(t *testing.T) {
	p := Pipeline{
		DiffMS{Word: wordio.W32},
		Bit{Word: wordio.W32},
		RZE{},
	}
	src := smoothFloats32(4096, 11)
	enc := p.ForwardInto(nil, src)
	if len(enc) >= len(src) {
		t.Errorf("SPratio pipeline expanded smooth data: %d -> %d", len(src), len(enc))
	}
	dec, err := p.InverseInto(nil, enc, NoLimit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, src) {
		t.Error("pipeline roundtrip mismatch")
	}
	names := p.Names()
	want := []string{"DIFFMS32", "BIT32", "RZE"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("stage %d = %s, want %s", i, names[i], want[i])
		}
	}
}

// TestInverseRejectsGarbage feeds random bytes to every self-describing
// inverse and requires no panics (errors are fine).
func TestInverseRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tr := range allTransforms() {
		for trial := 0; trial < 200; trial++ {
			junk := make([]byte, rng.Intn(200))
			rng.Read(junk)
			dec, err := tr.InverseInto(nil, junk, NoLimit)
			_ = dec
			_ = err // must simply not panic
		}
	}
}

// uvarintForTest decodes a LEB128 prefix (mirrors bitio.Uvarint without the
// import cycle concerns of test helpers).
func uvarintForTest(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// TestRZEGranularityAblation tests the paper's design note: byte
// granularity finds more zero units than word granularity on
// BIT-transposed data, so it compresses better.
func TestRZEGranularityAblation(t *testing.T) {
	// Typical post-BIT data: long zero runs then scattered non-zero bytes.
	src := make([]byte, 16384)
	rng := rand.New(rand.NewSource(77))
	for i := 12000; i < len(src); i++ {
		if rng.Intn(3) > 0 {
			src[i] = byte(rng.Intn(255) + 1)
		}
	}
	sizes := map[int]int{}
	for _, g := range []int{1, 2, 4} {
		z := RZE{Granularity: g}
		enc := z.ForwardInto(nil, src)
		dec, err := z.InverseInto(nil, enc, NoLimit)
		if err != nil || !bytes.Equal(dec, src) {
			t.Fatalf("granularity %d: roundtrip failed", g)
		}
		sizes[g] = len(enc)
	}
	if !(sizes[1] <= sizes[2] && sizes[2] <= sizes[4]) {
		t.Errorf("byte granularity should win: sizes %v", sizes)
	}
	if (RZE{Granularity: 4}).Name() != "RZE32" || (RZE{}).Name() != "RZE" {
		t.Error("granularity names wrong")
	}
}

// TestRZEGranularityQuick: every granularity must be exactly invertible.
func TestRZEGranularityQuick(t *testing.T) {
	for _, g := range []int{1, 2, 3, 4, 8} {
		z := RZE{Granularity: g}
		f := func(src []byte) bool {
			dec, err := z.InverseInto(nil, z.ForwardInto(nil, src), NoLimit)
			return err == nil && bytes.Equal(dec, src)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Errorf("granularity %d: %v", g, err)
		}
	}
}
