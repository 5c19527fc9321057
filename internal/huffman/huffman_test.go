package huffman

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fpcompress/internal/bitio"
)

func TestRoundtrip(t *testing.T) {
	rnd := make([]byte, 100000)
	rand.New(rand.NewSource(1)).Read(rnd)
	inputs := [][]byte{
		{}, {0}, {255}, {7, 7, 7, 7},
		[]byte("huffman huffman huffman"),
		[]byte(strings.Repeat("abcdefgh", 10000)),
		make([]byte, 50000),
		rnd,
	}
	for i, src := range inputs {
		enc := Encode(src)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("input %d: mismatch", i)
		}
	}
}

func TestCompressesSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 1<<17)
	for i := range src {
		if rng.Float64() < 0.8 {
			src[i] = 0
		} else {
			src[i] = byte(rng.Intn(4))
		}
	}
	enc := Encode(src)
	// Entropy ~1.1 bits/byte; Huffman (integer bit codes) should land
	// under 2.5 bits/byte comfortably.
	if len(enc) > len(src)/3 {
		t.Errorf("skewed data: %d -> %d bytes", len(src), len(enc))
	}
}

func TestRandomDataOverheadSmall(t *testing.T) {
	src := make([]byte, 1<<17)
	rand.New(rand.NewSource(3)).Read(src)
	enc := Encode(src)
	if len(enc) > len(src)+len(src)/50+256 {
		t.Errorf("random data expanded: %d -> %d", len(src), len(enc))
	}
}

func TestCodeLengthsSatisfyKraft(t *testing.T) {
	f := func(raw []byte) bool {
		var freqs [256]int
		for _, c := range raw {
			freqs[c]++
		}
		lengths := codeLengths(&freqs)
		kraft := 0
		for s, l := range lengths {
			if l == 0 {
				if freqs[s] > 0 {
					return false // present symbols must be codable
				}
				continue
			}
			if l > MaxCodeLen {
				return false
			}
			kraft += 1 << (MaxCodeLen - l)
		}
		return len(raw) == 0 || kraft <= 1<<MaxCodeLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestLengthLimiting(t *testing.T) {
	// Fibonacci-like frequencies force very deep unconstrained trees.
	var freqs [256]int
	a, b := 1, 1
	for s := 0; s < 40; s++ {
		freqs[s] = a
		a, b = b, a+b
		if int64(a) > 1<<40 {
			break
		}
	}
	lengths := codeLengths(&freqs)
	for s, l := range lengths {
		if l > MaxCodeLen {
			t.Fatalf("symbol %d has length %d > %d", s, l, MaxCodeLen)
		}
	}
	// And the full coder still roundtrips such data.
	var src []byte
	for s := 0; s < 30; s++ {
		for k := 0; k < freqs[s] && k < 2000; k++ {
			src = append(src, byte(s))
		}
	}
	dec, err := Decode(Encode(src))
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatal("deep-tree roundtrip failed")
	}
}

func TestQuick(t *testing.T) {
	f := func(src []byte) bool {
		dec, err := Decode(Encode(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// oversubscribed is a one-symbol stream whose code-length table gives all
// 256 symbols 1-bit codes, far past Kraft's inequality.
func oversubscribed() []byte {
	w := bitio.NewWriterBuf([]byte{0x01})
	for range 256 {
		w.WriteBits(1, 5)
	}
	return append(w.Bytes(), 0)
}

func TestGarbage(t *testing.T) {
	if _, err := Decode(oversubscribed()); err == nil {
		t.Error("oversubscribed code lengths decoded without error")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		junk := make([]byte, rng.Intn(300))
		rng.Read(junk)
		Decode(junk)
	}
}
