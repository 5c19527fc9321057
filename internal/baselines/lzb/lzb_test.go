package lzb

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundtrip(t *testing.T) {
	rnd := make([]byte, 123457)
	rand.New(rand.NewSource(1)).Read(rnd)
	inputs := [][]byte{
		{}, {1}, {1, 2, 3},
		[]byte(strings.Repeat("abcabcabc", 10000)),
		make([]byte, 200000),
		rnd,
		bytes.Repeat([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 30000),
	}
	for _, probes := range []int{1, 16} {
		l := &LZ{Probes: probes}
		for i, src := range inputs {
			enc, err := l.Compress(src)
			if err != nil {
				t.Fatalf("probes %d input %d: %v", probes, i, err)
			}
			dec, err := l.Decompress(enc)
			if err != nil {
				t.Fatalf("probes %d input %d: %v", probes, i, err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatalf("probes %d input %d: mismatch", probes, i)
			}
		}
	}
}

func TestCompressesRepetitive(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox ", 5000))
	enc, _ := (&LZ{}).Compress(src)
	if ratio := float64(len(src)) / float64(len(enc)); ratio < 20 {
		t.Errorf("ratio %.1f on repetitive text, want > 20", ratio)
	}
}

func TestMoreProbesNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 100000)
	for i := range src {
		src[i] = byte(rng.Intn(5)) // repetitive alphabet: matches everywhere
	}
	e1, _ := (&LZ{Probes: 1}).Compress(src)
	e32, _ := (&LZ{Probes: 32}).Compress(src)
	if len(e32) > len(e1)+len(e1)/20 {
		t.Errorf("32 probes (%d) clearly worse than 1 probe (%d)", len(e32), len(e1))
	}
}

func TestLabel(t *testing.T) {
	if (&LZ{Label: "LZ4"}).Name() != "LZ4" {
		t.Error("label ignored")
	}
	if (&LZ{Probes: 3}).Name() != "LZB-3" {
		t.Error("default name wrong")
	}
}

func TestQuick(t *testing.T) {
	l := &LZ{Probes: 4}
	f := func(src []byte) bool {
		enc, err := l.Compress(src)
		if err != nil {
			return false
		}
		dec, err := l.Decompress(enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGarbage(t *testing.T) {
	l := &LZ{}
	// Declared length 8, then a literal length of 2^64-1, which wraps to
	// -1 as an int.
	hostile := [][]byte{{0x08, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}}
	for _, enc := range hostile {
		if _, err := l.Decompress(enc); err == nil {
			t.Errorf("% x: decoded without error", enc)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		junk := make([]byte, rng.Intn(100))
		rng.Read(junk)
		l.Decompress(junk)
	}
}
