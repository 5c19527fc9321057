package zstdx

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundtrip(t *testing.T) {
	rnd := make([]byte, 150001)
	rand.New(rand.NewSource(1)).Read(rnd)
	inputs := [][]byte{
		{}, {1}, {1, 2, 3},
		[]byte(strings.Repeat("zstandard! ", 30000)),
		make([]byte, 300000),
		rnd,
	}
	for _, level := range []int{1, 19} {
		z := &Zstd{Level: level}
		for i, src := range inputs {
			enc, err := z.Compress(src)
			if err != nil {
				t.Fatalf("level %d input %d: %v", level, i, err)
			}
			dec, err := z.Decompress(enc)
			if err != nil {
				t.Fatalf("level %d input %d: %v", level, i, err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatalf("level %d input %d: mismatch", level, i)
			}
		}
	}
}

func TestEntropyStageHelps(t *testing.T) {
	// Skewed literals with no LZ matches: the rANS stage must still shrink
	// the stream (this is what separates the Zstd class from plain LZ4).
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 1<<17)
	prev := byte(0)
	for i := range src {
		prev += byte(rng.Intn(3)) // low-entropy but rarely repeating 4-grams
		src[i] = prev
	}
	enc, _ := (&Zstd{}).Compress(src)
	if ratio := float64(len(src)) / float64(len(enc)); ratio < 1.5 {
		t.Errorf("ratio %.2f on low-entropy stream, want > 1.5", ratio)
	}
}

func TestLargeWindowBeatsSmall(t *testing.T) {
	// A repeat 300 kB apart is outside a 64 kB window but inside ours.
	rng := rand.New(rand.NewSource(3))
	half := make([]byte, 300000)
	rng.Read(half)
	src := append(append([]byte{}, half...), half...)
	enc, _ := (&Zstd{}).Compress(src)
	if ratio := float64(len(src)) / float64(len(enc)); ratio < 1.8 {
		t.Errorf("ratio %.2f on far repeat, want ~2", ratio)
	}
}

func TestQuick(t *testing.T) {
	z := &Zstd{Level: 2}
	f := func(src []byte) bool {
		enc, err := z.Compress(src)
		if err != nil {
			return false
		}
		dec, err := z.Decompress(enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGarbage(t *testing.T) {
	z := &Zstd{}
	// Declared length 8, then a literal-section length of 2^64-1, which
	// wraps to -1 as an int.
	hostile := [][]byte{{0x08, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}}
	for _, enc := range hostile {
		if _, err := z.Decompress(enc); err == nil {
			t.Errorf("% x: decoded without error", enc)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		junk := make([]byte, rng.Intn(120))
		rng.Read(junk)
		z.Decompress(junk)
	}
}
