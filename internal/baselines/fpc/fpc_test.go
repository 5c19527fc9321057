package fpc

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fpcompress/internal/wordio"
)

func smoothDoubles(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n*8)
	v := 3000.0
	for i := 0; i < n; i++ {
		v += math.Sin(float64(i)/80)*5 + rng.NormFloat64()*0.01
		wordio.PutU64(b, i, math.Float64bits(v))
	}
	return b
}

func TestFPCRoundtrip(t *testing.T) {
	f := &FPC{}
	inputs := [][]byte{
		{},
		{1, 2, 3},
		smoothDoubles(10000, 1),
		smoothDoubles(10000, 2)[:79997], // tail bytes
		make([]byte, 8000),
	}
	rnd := make([]byte, 64000)
	rand.New(rand.NewSource(3)).Read(rnd)
	inputs = append(inputs, rnd)
	for i, src := range inputs {
		enc, err := f.Compress(src)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		dec, err := f.Decompress(enc)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("input %d: roundtrip mismatch", i)
		}
	}
}

func TestFPCCompressesSmoothData(t *testing.T) {
	f := &FPC{}
	src := smoothDoubles(1<<16, 4)
	enc, err := f.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(src)) / float64(len(enc))
	if ratio < 1.1 {
		t.Errorf("ratio %.3f on smooth doubles, want > 1.1", ratio)
	}
}

// TestFPCExploitsRepeatingPattern: FPC's hash predictors shine on periodic
// data where context repeats exactly.
func TestFPCExploitsRepeatingPattern(t *testing.T) {
	n := 1 << 14
	b := make([]byte, n*8)
	vals := []float64{1.25, 2.5, 3.75, 5.0}
	for i := 0; i < n; i++ {
		wordio.PutU64(b, i, math.Float64bits(vals[i%4]))
	}
	f := &FPC{}
	enc, _ := f.Compress(b)
	ratio := float64(len(b)) / float64(len(enc))
	if ratio < 5 {
		t.Errorf("ratio %.2f on periodic data, want > 5 (perfect predictions)", ratio)
	}
}

func TestFPCQuick(t *testing.T) {
	f := &FPC{TableBits: 10}
	fn := func(src []byte) bool {
		enc, err := f.Compress(src)
		if err != nil {
			return false
		}
		dec, err := f.Decompress(enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestFPCRejectsGarbage(t *testing.T) {
	f := &FPC{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		junk := make([]byte, rng.Intn(100))
		rng.Read(junk)
		f.Decompress(junk) // must not panic
	}
	// pFPC: two chunks whose sizes, 2^63 and 2^63+1, wrap as int to a sum
	// of 1, the one byte that follows them.
	wrap := []byte{0x02}
	wrap = append(wrap, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	wrap = append(wrap, 0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	wrap = append(wrap, 0x00)
	if _, err := (&PFPC{}).Decompress(wrap); err == nil {
		t.Error("wrapping chunk sizes decoded without error")
	}
}

func TestPFPCRoundtrip(t *testing.T) {
	p := &PFPC{ChunkValues: 1000}
	for _, src := range [][]byte{
		{},
		smoothDoubles(50000, 6),
		smoothDoubles(1000, 7)[:7999],
	} {
		enc, err := p.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := p.Decompress(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatal("pFPC roundtrip mismatch")
		}
	}
}

func TestPFPCMatchesFPCRatioApproximately(t *testing.T) {
	src := smoothDoubles(1<<17, 8)
	fEnc, _ := (&FPC{}).Compress(src)
	pEnc, _ := (&PFPC{}).Compress(src)
	fr := float64(len(src)) / float64(len(fEnc))
	pr := float64(len(src)) / float64(len(pEnc))
	// Chunking costs a little context at boundaries but not much.
	if pr < fr*0.9 {
		t.Errorf("pFPC ratio %.3f much worse than FPC %.3f", pr, fr)
	}
}

func TestPFPCDeterministicAcrossParallelism(t *testing.T) {
	src := smoothDoubles(1<<16, 9)
	a, _ := (&PFPC{Parallelism: 1}).Compress(src)
	b, _ := (&PFPC{Parallelism: 8}).Compress(src)
	if !bytes.Equal(a, b) {
		t.Error("pFPC output depends on parallelism")
	}
}

func TestLzBytesCodes(t *testing.T) {
	cases := []struct {
		res   uint64
		code  int
		count int
	}{
		{0xFFFFFFFFFFFFFFFF, 0, 0},
		{0x00FFFFFFFFFFFFFF, 1, 1},
		{0x0000FFFFFFFFFFFF, 2, 2},
		{0x000000FFFFFFFFFF, 3, 3},
		{0x00000000FFFFFFFF, 3, 3}, // count 4 folded to 3
		{0x0000000000FFFFFF, 4, 5},
		{0x000000000000FFFF, 5, 6},
		{0x00000000000000FF, 6, 7},
		{0, 7, 8},
	}
	for _, c := range cases {
		code, count := lzBytes(c.res)
		if code != c.code || count != c.count {
			t.Errorf("lzBytes(%#x) = (%d,%d), want (%d,%d)", c.res, code, count, c.code, c.count)
		}
		if countFromCode(code) != count && c.res != 0x00000000FFFFFFFF {
			t.Errorf("countFromCode(%d) = %d, want %d", code, countFromCode(code), count)
		}
	}
}
