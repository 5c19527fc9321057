package transforms

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"fpcompress/internal/bitio"
	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// refAdaptiveInverse is the word-at-a-time RAZE/RARE decoder the bulk
// unpack-and-merge decoder replaced, kept as the test oracle: the same
// header checks in the same order, then one bitmap test and one or two
// bit-window loads per word. It returns the decoded bytes alone.
func refAdaptiveInverse(enc []byte, repeat bool, maxDecoded int) ([]byte, error) {
	declen64, hn := bitio.Uvarint(enc)
	if hn == 0 || hn >= len(enc) {
		return nil, Corruptf("RAZE/RARE: bad length prefix")
	}
	if err := checkDecodedLen("RAZE/RARE", declen64, maxDecoded); err != nil {
		return nil, err
	}
	declen := int(declen64)
	k := int(enc[hn])
	if k > 64 {
		return nil, Corruptf("RAZE/RARE: split k=%d out of range", k)
	}
	body := enc[hn+1:]
	n := declen / 8
	tailLen := declen - n*8
	if k == 0 {
		if len(body) < declen {
			return nil, Corruptf("RAZE/RARE: truncated raw body")
		}
		return append([]byte(nil), body[:declen]...), nil
	}
	var scratch []byte
	bm, consumed, err := decodeRepeatBitmapScratch(&scratch, body, (n+7)/8)
	if err != nil {
		return nil, err
	}
	body = body[consumed:]
	nKept := 0
	for i := 0; i < n; i++ {
		if bm[i>>3]&(0x80>>(i&7)) != 0 {
			nKept++
		}
	}
	keptBytes := (nKept*k + 7) / 8
	if len(body) < keptBytes {
		return nil, Corruptf("RAZE/RARE: truncated kept pieces")
	}
	kept := body[:keptBytes]
	body = body[keptBytes:]
	bw := uint(64 - k)
	botBytes := (n*int(bw) + 7) / 8
	if len(body) < botBytes {
		return nil, Corruptf("RAZE/RARE: truncated bottom pieces")
	}
	pad := append(append(append([]byte(nil), kept...), body[:botBytes]...), make([]byte, 8)...)
	body = body[botBytes:]
	out := make([]byte, declen)
	kpos, bpos := uint(0), uint(keptBytes)*8
	prevTop := uint64(0)
	for i := 0; i < n; i++ {
		var top uint64
		if bm[i>>3]&(0x80>>(i&7)) != 0 {
			top = wordio.LoadBits(pad, kpos, uint(k))
			kpos += uint(k)
		} else if repeat {
			top = prevTop
		}
		var b uint64
		if bw > 0 {
			b = wordio.LoadBits(pad, bpos, bw)
			bpos += bw
		}
		wordio.PutU64(out, i, top<<bw|b)
		prevTop = top
	}
	if tailLen > 0 {
		if len(body) < tailLen {
			return nil, Corruptf("RAZE/RARE: truncated tail")
		}
		copy(out[n*8:], body[:tailLen])
	}
	return out, nil
}

// adaptiveCase is one hand-built RAZE/RARE stream and the words it decodes
// to under each reconstruction rule.
type adaptiveCase struct {
	enc        []byte
	raze, rare []byte
}

// buildAdaptiveCase encodes n words at split k (1..64) with a bitmap that
// mixes all-zero, all-one and random bytes, sets the pad bits of a partial
// final bitmap byte (a decoder must ignore them), and appends tailLen
// verbatim bytes. The encoder never picks k=1 or sets pad bits, so only a
// hand-built stream reaches those cases.
func buildAdaptiveCase(rng *rand.Rand, n, k, tailLen int) adaptiveCase {
	bw := uint(64 - k)
	topMask := ^uint64(0) >> bw
	bm := make([]byte, (n+7)/8)
	for i := range bm {
		// Offset by k so that across splits the final byte is all-zero,
		// all-one and random before its pad bits are set.
		switch (i + k) % 4 {
		case 0:
		case 1:
			bm[i] = 0xff
		default:
			bm[i] = byte(rng.Intn(256))
		}
	}
	if n&7 != 0 {
		bm[len(bm)-1] |= 0xff >> (n & 7)
	}
	bots := make([]uint64, n)
	tops := make([]uint64, n)
	raze := make([]uint64, n)
	rare := make([]uint64, n)
	nKept := 0
	prev := uint64(0)
	for i := range bots {
		bot := uint64(0)
		if bw > 0 {
			bot = rng.Uint64() & (1<<bw - 1)
		}
		bots[i] = bot
		top := uint64(0)
		if bm[i>>3]&(0x80>>(i&7)) != 0 {
			top = rng.Uint64() & topMask
			tops[nKept] = top
			nKept++
			prev = top
		}
		raze[i] = top<<bw | bot
		rare[i] = prev<<bw | bot
	}
	tail := make([]byte, tailLen)
	rng.Read(tail)
	enc := bitio.AppendUvarint(nil, uint64(n*8+tailLen))
	enc = append(enc, byte(k))
	enc = appendRepeatBitmap(enc, bm)
	enc = adaptivePack(enc, tops[:nKept], bots, k)
	enc = append(enc, tail...)
	return adaptiveCase{
		enc:  enc,
		raze: append(wordio.Bytes64(raze, n*8), tail...),
		rare: append(wordio.Bytes64(rare, n*8), tail...),
	}
}

// adaptiveSeeds returns one hand-built stream per split k, cycling the
// word count mod 8 and the tail length with k, for the RAZE/RARE fuzzers.
func adaptiveSeeds() [][]byte {
	rng := rand.New(rand.NewSource(21))
	var seeds [][]byte
	for k := 1; k <= 64; k++ {
		seeds = append(seeds, buildAdaptiveCase(rng, 64+k%8, k, (k/8)%8).enc)
	}
	return seeds
}

// TestAdaptiveUnpackTable decodes hand-built streams at every split k
// (k=64 has no bottoms; k<7 has bottoms wider than the 57 bits simd's
// unpack kernel covers), every word count mod 8 with the last bitmap
// byte's pad bits set, and 0-7 tail bytes, at both simd dispatch levels,
// against the construction and the word-at-a-time reference decoder.
func TestAdaptiveUnpackTable(t *testing.T) {
	defer simd.Enable()
	rng := rand.New(rand.NewSource(1))
	for _, disable := range []bool{true, false} {
		if disable {
			simd.Disable()
		} else {
			simd.Enable()
		}
		for k := 1; k <= 64; k++ {
			for r := 0; r < 8; r++ {
				for tailLen := 0; tailLen < 8; tailLen++ {
					c := buildAdaptiveCase(rng, 64+r, k, tailLen)
					for _, tc := range []struct {
						tr     Transform
						repeat bool
						want   []byte
					}{{RAZE{}, false, c.raze}, {RARE{}, true, c.rare}} {
						name := fmt.Sprintf("%s simd=%s k=%d n=%d tail=%d", tc.tr.Name(), simd.Active(), k, 64+r, tailLen)
						got, err := tc.tr.InverseInto([]byte{0xEE}, c.enc, NoLimit)
						if err != nil || !bytes.Equal(got[1:], tc.want) {
							t.Fatalf("%s: decode differs from construction (err %v)", name, err)
						}
						ref, err := refAdaptiveInverse(c.enc, tc.repeat, NoLimit)
						if err != nil || !bytes.Equal(ref, tc.want) {
							t.Fatalf("%s: reference decode differs from construction (err %v)", name, err)
						}
					}
				}
			}
		}
	}
}

// TestAdaptiveSplitModel cross-checks the encoder's histogram against a
// per-word count, its kept-word test against the leading-bit rule, and
// bestSplitHist's closed-form choice against a brute-force bit count over
// every k.
func TestAdaptiveSplitModel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	words := make([]uint64, 515)
	for i := range words {
		words[i] = uint64(rng.Int63()) >> uint(rng.Intn(64))
		if i%7 == 3 {
			words[i] = words[i-1] ^ uint64(rng.Intn(1<<16))
		}
	}
	for _, common := range []bool{false, true} {
		lead := make([]int, len(words))
		var want [65]int
		prev := uint64(0)
		for i, v := range words {
			if common {
				v ^= prev
				prev = words[i]
			}
			lead[i] = bits.LeadingZeros64(v)
			want[lead[i]]++
		}
		hist := adaptiveHist(words, common)
		if hist != want {
			t.Fatalf("common=%v: adaptiveHist differs from a per-word count", common)
		}
		model := func(k int) int {
			if k == 0 {
				return 64 * len(words)
			}
			kept := 0
			for _, l := range lead {
				if l < k {
					kept++
				}
			}
			bm := make([]byte, (len(words)+7)/8)
			scratch := make([]uint64, 2*len(words))
			if got := adaptiveKept(bm, scratch[:len(words)], scratch[len(words):], words, k, common); got != kept {
				t.Fatalf("common=%v k=%d: adaptiveKept kept %d words, want %d", common, k, got, kept)
			}
			return len(words) + kept*k + (64-k)*len(words)
		}
		k, _ := bestSplitHist(&hist, len(words))
		best := model(k)
		for kk := 0; kk <= 64; kk++ {
			if model(kk) < best {
				t.Fatalf("common=%v: bestSplitHist picked k=%d (size %d) but k=%d gives %d", common, k, best, kk, model(kk))
			}
		}
	}
}
