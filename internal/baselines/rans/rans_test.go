package rans

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundtrip(t *testing.T) {
	rnd := make([]byte, 300000)
	rand.New(rand.NewSource(1)).Read(rnd)
	skew := make([]byte, 200000)
	rng := rand.New(rand.NewSource(2))
	for i := range skew {
		if rng.Float64() < 0.9 {
			skew[i] = 0
		} else {
			skew[i] = byte(rng.Intn(8))
		}
	}
	inputs := [][]byte{
		{}, {0}, {255}, []byte("hello world"),
		make([]byte, 100000),
		bytes.Repeat([]byte{1, 2, 3}, 50000),
		rnd, skew,
		make([]byte, BlockSize+12345), // multi-block
	}
	a := ANS{}
	for i, src := range inputs {
		enc, err := a.Compress(src)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		dec, err := a.Decompress(enc)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("input %d: mismatch", i)
		}
	}
}

func TestCompressesSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 1<<18)
	for i := range src {
		if rng.Float64() < 0.85 {
			src[i] = 0
		} else {
			src[i] = byte(rng.Intn(16))
		}
	}
	enc, _ := (ANS{}).Compress(src)
	if ratio := float64(len(src)) / float64(len(enc)); ratio < 2.5 {
		t.Errorf("ratio %.3f on skewed bytes, want > 2.5 (entropy ~1.2 bits)", ratio)
	}
}

func TestRandomDataNearIncompressible(t *testing.T) {
	src := make([]byte, 1<<18)
	rand.New(rand.NewSource(4)).Read(src)
	enc, _ := (ANS{}).Compress(src)
	if len(enc) > len(src)+len(src)/50+2048 {
		t.Errorf("random data expanded too much: %d -> %d", len(src), len(enc))
	}
}

func TestNormalizeFreqsSumsToScale(t *testing.T) {
	f := func(raw []byte) bool {
		var counts [256]int
		for _, c := range raw {
			counts[c]++
		}
		freqs := normalizeFreqs(&counts, len(raw))
		sum := 0
		for s := 0; s < 256; s++ {
			if counts[s] > 0 && freqs[s] == 0 {
				return false // present symbols must stay codable
			}
			if counts[s] == 0 && freqs[s] != 0 {
				return false
			}
			sum += int(freqs[s])
		}
		return len(raw) == 0 || sum == probScale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuick(t *testing.T) {
	a := ANS{}
	f := func(src []byte) bool {
		enc, err := a.Compress(src)
		if err != nil {
			return false
		}
		dec, err := a.Decompress(enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGarbage(t *testing.T) {
	a := ANS{}
	// An empty stream whose one empty block carries a frequency table
	// summing to probScale+1, one past the slot table.
	hostile := []byte{0x00, 0x00, 0x80, 0x20, 0x01}
	hostile = append(hostile, make([]byte, 254+4)...)
	if _, err := a.Decompress(hostile); err == nil {
		t.Errorf("% x: decoded without error", hostile[:5])
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		junk := make([]byte, rng.Intn(120))
		rng.Read(junk)
		a.Decompress(junk)
	}
}
