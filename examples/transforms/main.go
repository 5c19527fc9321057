// Transforms example: walks through the worked examples of the paper's
// Figures 2-7, printing the actual bit patterns each stage produces —
// DIFFMS's difference + magnitude-sign conversion, MPLG's leading-zero
// elimination, BIT's transposition, RZE's zero elimination, FCM's
// hash-sort matching, and RAZE/RARE's adaptive split.
package main

import (
	"fmt"
	"math"

	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

func main() {
	figure2()
	figure3()
	figure4and5()
	figure6()
	figure7()
}

// figure2 reproduces Figure 2: DIFFMS on 2.5f, 2.0f, 1.75f.
func figure2() {
	fmt.Println("== Figure 2: DIFFMS (difference + two's-complement to magnitude-sign) ==")
	vals := []float32{2.5, 2.0, 1.75}
	src := make([]byte, 12)
	for i, v := range vals {
		src[i*4+0] = byte(math.Float32bits(v))
		src[i*4+1] = byte(math.Float32bits(v) >> 8)
		src[i*4+2] = byte(math.Float32bits(v) >> 16)
		src[i*4+3] = byte(math.Float32bits(v) >> 24)
	}
	for i, v := range vals {
		fmt.Printf("  in : %5.2f = %032b\n", v, math.Float32bits(vals[i]))
	}
	enc := transforms.DiffMS{Word: wordio.W32}.ForwardInto(nil, src)
	for i := range vals {
		fmt.Printf("  out:         %032b\n", wordio.U32(enc, i))
	}
	fmt.Println("  (negative differences now lead with zeros, sign in the LSB)")
	fmt.Println()
}

// figure3 reproduces Figure 3: MPLG removes the common leading zeros.
func figure3() {
	fmt.Println("== Figure 3: MPLG (common leading-zero elimination) ==")
	words := []uint32{0x000FFFFF, 0x00000300, 0x0004AAAA} // max has 12 leading zeros
	src := make([]byte, 12)
	for i, w := range words {
		wordio.PutU32(src, i, w)
	}
	enc := transforms.MPLG{Word: wordio.W32}.ForwardInto(nil, src)
	for _, w := range words {
		fmt.Printf("  in : %032b (clz %d)\n", w, wordio.Clz32(w))
	}
	fmt.Printf("  encoded: %d bytes -> %d bytes (12 leading bits removed per word + header)\n",
		len(src), len(enc))
	dec, err := transforms.MPLG{Word: wordio.W32}.InverseInto(nil, enc, transforms.NoLimit)
	fmt.Printf("  lossless: %v\n\n", err == nil && string(dec) == string(src))
}

// figure4and5 reproduces Figures 4 and 5: BIT then RZE over the DIFFMS
// output of Figure 2.
func figure4and5() {
	fmt.Println("== Figures 4 & 5: BIT (bit transposition) then RZE (repeated zero elimination) ==")
	// A 32-word block of small values (after DIFFMS smooth data looks like
	// this): transposing groups their many leading zeros into zero bytes.
	src := make([]byte, 128)
	for i := 0; i < 32; i++ {
		wordio.PutU32(src, i, uint32(i*3))
	}
	bit := transforms.Bit{Word: wordio.W32}.ForwardInto(nil, src)
	zeroBytes := 0
	for _, b := range bit {
		if b == 0 {
			zeroBytes++
		}
	}
	fmt.Printf("  after BIT: %d of %d bytes are zero (were %d before)\n",
		zeroBytes, len(bit), countZeros(src))
	enc := transforms.RZE{}.ForwardInto(nil, bit)
	fmt.Printf("  after RZE: %d bytes (bitmap recursively compressed)\n", len(enc))
	dec, _ := transforms.RZE{}.InverseInto(nil, enc, transforms.NoLimit)
	back, _ := transforms.Bit{Word: wordio.W32}.InverseInto(nil, dec, transforms.NoLimit)
	fmt.Printf("  lossless: %v\n\n", string(back) == string(src))
}

// figure6 reproduces Figure 6's mechanism: FCM matching repeated values in
// repeated contexts. (The paper's a-b-a-b-c-a-b illustration uses
// simplified hashes; with a real 3-value context hash the repeats must
// carry their context, so we use a periodic sequence.)
func figure6() {
	fmt.Println("== Figure 6: FCM (hash of 3 priors, sort, match window 4) ==")
	a, b, c, d := 1.5, 2.5, 3.5, 4.5
	seq := []float64{a, b, c, d, a, b, c, d, a, b, c, d}
	src := make([]byte, len(seq)*8)
	for i, v := range seq {
		wordio.PutU64(src, i, math.Float64bits(v))
	}
	enc := transforms.FCM{}.ForwardInto(nil, src)
	n := len(seq)
	fmt.Print("  value   :")
	for _, v := range seq {
		fmt.Printf(" %4.1f", v)
	}
	fmt.Print("\n  emitted :")
	for i := 0; i < n; i++ {
		v := wordio.U64(enc[8:], i)
		fmt.Printf(" %4.1f", math.Float64frombits(v))
	}
	fmt.Print("\n  distance:")
	for i := 0; i < n; i++ {
		fmt.Printf(" %4d", wordio.U64(enc[8+n*8:], i))
	}
	fmt.Println("\n  (non-zero distance = repeat of the value that far back)")
	fmt.Println()
}

// figure7 reproduces Figure 7: RAZE/RARE find the optimal top-k split.
func figure7() {
	fmt.Println("== Figure 7: RAZE / RARE (adaptive top-k elimination) ==")
	// Doubles whose top 24 bits carry no information (zero for RAZE,
	// constant for RARE) over random low bits: the histogram-driven split
	// finds k=24 and keeps the random bottoms verbatim.
	zeroTop := make([]byte, 2048*8)
	constTop := make([]byte, 2048*8)
	state := uint64(99)
	for i := 0; i < 2048; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		wordio.PutU64(zeroTop, i, state&0xFFFFFFFFFF)
		wordio.PutU64(constTop, i, 0xABCDEF<<40|state&0xFFFFFFFFFF)
	}
	raze := transforms.RAZE{}.ForwardInto(nil, zeroTop)
	rare := transforms.RARE{}.ForwardInto(nil, constTop)
	fmt.Printf("  zero-top input %d bytes  -> RAZE %d bytes (chose k=%d)\n",
		len(zeroTop), len(raze), splitK(raze))
	fmt.Printf("  const-top input %d bytes -> RARE %d bytes (chose k=%d)\n",
		len(constTop), len(rare), splitK(rare))
	fmt.Println("  (k is stored per chunk; the decompressor reads it, no histogram needed)")
}

// splitK extracts the stored k byte that follows the uvarint length prefix
// of a RAZE/RARE payload.
func splitK(enc []byte) int {
	i := 0
	for enc[i]&0x80 != 0 {
		i++
	}
	return int(enc[i+1])
}

func countZeros(b []byte) int {
	n := 0
	for _, c := range b {
		if c == 0 {
			n++
		}
	}
	return n
}
