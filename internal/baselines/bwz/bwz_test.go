package bwz

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"fpcompress/internal/bitio"
)

func TestSuffixArraySortsSuffixes(t *testing.T) {
	check := func(data []byte) bool {
		sa := suffixArray(data)
		if len(sa) != len(data)+1 {
			return false
		}
		if sa[0] != len(data) {
			return false // sentinel suffix sorts first
		}
		for i := 1; i < len(sa); i++ {
			a := data[sa[i-1]:]
			b := data[sa[i]:]
			// With the sentinel, shorter-prefix ties are broken by the
			// sentinel being smallest: compare then length.
			c := bytes.Compare(a, b)
			if c > 0 {
				return false
			}
			if c == 0 && len(a) >= len(b) && sa[i-1] != len(data) {
				return false
			}
		}
		return true
	}
	cases := [][]byte{
		nil, {0}, {1, 1, 1, 1}, []byte("banana"), []byte("mississippi"),
		bytes.Repeat([]byte("ab"), 100),
	}
	for _, c := range cases {
		if !check(c) {
			t.Errorf("suffix array wrong for %q", c)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSuffixArrayAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(200)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(4)) // small alphabet stresses ties
		}
		want := make([]int, n+1)
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool {
			// Compare suffixes of data+sentinel.
			x, y := want[a], want[b]
			for {
				if x == n && y == n {
					return false
				}
				if x == n {
					return true
				}
				if y == n {
					return false
				}
				if data[x] != data[y] {
					return data[x] < data[y]
				}
				x++
				y++
			}
		})
		got := suffixArray(data)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: sa[%d] = %d, want %d (data %v)", trial, i, got[i], want[i], data)
			}
		}
	}
}

func TestBWTRoundtrip(t *testing.T) {
	f := func(data []byte) bool {
		bwt, row := bwtForward(data)
		back, err := bwtInverse(bwt, row)
		return err == nil && bytes.Equal(back, data)
	}
	for _, c := range [][]byte{nil, {5}, []byte("banana"), bytes.Repeat([]byte{7}, 1000)} {
		if !f(c) {
			t.Errorf("BWT roundtrip failed for %v", c)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBWTGroupsSymbols(t *testing.T) {
	// The whole point of BWT: repetitive input -> long runs in the output.
	data := []byte(strings.Repeat("abracadabra", 200))
	bwt, _ := bwtForward(data)
	runs := 1
	for i := 1; i < len(bwt); i++ {
		if bwt[i] != bwt[i-1] {
			runs++
		}
	}
	if runs > len(bwt)/10 {
		t.Errorf("BWT produced %d runs for %d bytes — not grouping", runs, len(bwt))
	}
}

func TestMTFRoundtrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(mtfInverse(mtfForward(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRLERoundtrip(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := rleInverse(rleForward(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	long := bytes.Repeat([]byte{9}, 100000)
	enc := rleForward(long)
	if len(enc) > 16 {
		t.Errorf("100k-byte run encoded to %d bytes", len(enc))
	}
}

func TestCompressorRoundtrip(t *testing.T) {
	rnd := make([]byte, 50000)
	rand.New(rand.NewSource(2)).Read(rnd)
	inputs := [][]byte{
		{}, {1}, []byte("hello"),
		[]byte(strings.Repeat("compression ", 20000)), // multi-block
		make([]byte, 150000),
		rnd,
	}
	b := &BWZ{Level: 1}
	for i, src := range inputs {
		enc, err := b.Compress(src)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		dec, err := b.Decompress(enc)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("input %d: mismatch", i)
		}
	}
}

func TestCompressesText(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 3000))
	enc, _ := (&BWZ{}).Compress(src)
	if ratio := float64(len(src)) / float64(len(enc)); ratio < 20 {
		t.Errorf("ratio %.1f on repetitive text, want > 20", ratio)
	}
}

func TestQuick(t *testing.T) {
	b := &BWZ{Level: 1}
	f := func(src []byte) bool {
		enc, err := b.Compress(src)
		if err != nil {
			return false
		}
		dec, err := b.Decompress(enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGarbage(t *testing.T) {
	b := &BWZ{}
	// Declared length 8, one block of 8 bytes at row 0, then a packed
	// length of 2^64-1, which wraps to -1 as an int.
	hostile := [][]byte{{0x08, 0x08, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}}
	// One block whose Huffman table gives all 256 symbols 1-bit codes,
	// far past Kraft's inequality.
	w := bitio.NewWriterBuf([]byte{0x01})
	for range 256 {
		w.WriteBits(1, 5)
	}
	packed := append(w.Bytes(), 0)
	block := bitio.AppendUvarint([]byte{0x01, 0x01, 0x00}, uint64(len(packed)))
	hostile = append(hostile, append(block, packed...))
	for _, enc := range hostile {
		if _, err := b.Decompress(enc); err == nil {
			t.Errorf("% x: decoded without error", enc)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		junk := make([]byte, rng.Intn(120))
		rng.Read(junk)
		b.Decompress(junk)
	}
}
