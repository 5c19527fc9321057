package simt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// TestInclusiveScanMatchesSequential: the log-step schedule must equal a
// running sum (including wraparound arithmetic).
func TestInclusiveScanMatchesSequential(t *testing.T) {
	f := func(xs []uint64) bool {
		got := InclusiveScanU64(xs)
		var sum uint64
		for i, x := range xs {
			sum += x
			if got[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExclusiveScan(t *testing.T) {
	got := ExclusiveScanInts([]int{3, 1, 4, 1, 5})
	want := []int{0, 3, 4, 8, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("exclusive scan = %v, want %v", got, want)
		}
	}
	if out := ExclusiveScanInts(nil); len(out) != 0 {
		t.Error("empty scan")
	}
}

func TestMaxReduce(t *testing.T) {
	f := func(xs []uint64) bool {
		got := MaxReduceU64(xs)
		var want uint64
		for _, x := range xs {
			if x > want {
				want = x
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWarpTransposeMatchesSequentialBIT: the shuffle formulation must
// produce exactly what the sequential BIT transform produces on one
// 32-word block.
func TestWarpTransposeMatchesSequentialBIT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var words [WarpSize]uint32
		src := make([]byte, WarpSize*4)
		for i := range words {
			words[i] = rng.Uint32()
			wordio.PutU32(src, i, words[i])
		}
		seq := transforms.Bit{Word: wordio.W32}.ForwardInto(nil, src)
		warp := WarpTransposeBits(words)
		for i := 0; i < WarpSize; i++ {
			if wordio.U32(seq, i) != warp[i] {
				t.Fatalf("trial %d plane %d: warp %08x, sequential %08x",
					trial, i, warp[i], wordio.U32(seq, i))
			}
		}
	}
}

func TestWarpTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var words [WarpSize]uint32
	for i := range words {
		words[i] = rng.Uint32()
	}
	back := WarpTransposeBits(WarpTransposeBits(words))
	if back != words {
		t.Error("transpose applied twice is not the identity")
	}
}

// TestDecoupledLookbackMatchesPrefixSum: the single-pass scan must equal
// the serial prefix sum the CPU decoder computes over compressed chunk
// sizes.
func TestDecoupledLookbackMatchesPrefixSum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = rng.Intn(10000)
		}
		got := DecoupledLookback(sizes)
		run := 0
		for i, s := range sizes {
			if got[i] != run {
				t.Fatalf("trial %d block %d: offset %d, want %d", trial, i, got[i], run)
			}
			run += s
		}
	}
}

// TestBlockDiffMSDecodeMatchesSequential: the prefix-sum decoder must be
// bit-identical to DiffMS.InverseInto — the CPU/GPU compatibility property.
func TestBlockDiffMSDecodeMatchesSequential(t *testing.T) {
	f := func(src []byte) bool {
		enc64 := transforms.DiffMS{Word: wordio.W64}.ForwardInto(nil, src)
		seq64, _ := transforms.DiffMS{Word: wordio.W64}.InverseInto(nil, enc64, transforms.NoLimit)
		if !bytes.Equal(BlockDiffMSDecode64(enc64), seq64) {
			return false
		}
		enc32 := transforms.DiffMS{Word: wordio.W32}.ForwardInto(nil, src)
		seq32, _ := transforms.DiffMS{Word: wordio.W32}.InverseInto(nil, enc32, transforms.NoLimit)
		return bytes.Equal(BlockDiffMSDecode32(enc32), seq32)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCompactNonZeroMatchesRZEInternals: the scan-and-scatter compaction
// must produce the same bitmap and byte order RZE emits.
func TestCompactNonZeroMatchesRZEInternals(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(3000)
		data := make([]byte, n)
		for i := range data {
			if rng.Float64() < 0.7 {
				data[i] = 0
			} else {
				data[i] = byte(1 + rng.Intn(255))
			}
		}
		bitmap, nonzero := CompactNonZero(data)
		// Reference: sequential pass.
		wantBM := make([]byte, (n+7)/8)
		var wantNZ []byte
		for i, c := range data {
			if c != 0 {
				wantBM[i>>3] |= 0x80 >> (i & 7)
				wantNZ = append(wantNZ, c)
			}
		}
		if !bytes.Equal(bitmap, wantBM) || !bytes.Equal(nonzero, wantNZ) {
			t.Fatalf("trial %d: compaction differs from sequential RZE", trial)
		}
		// And the full RZE transform must decode data built from these
		// parts (spot-check the integration).
		enc := transforms.RZE{}.ForwardInto(nil, data)
		dec, err := transforms.RZE{}.InverseInto(nil, enc, transforms.NoLimit)
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatal("RZE roundtrip broke")
		}
	}
}

// TestScanWraparound: DIFFMS relies on mod-2^64 arithmetic; the parallel
// scan must wrap identically.
func TestScanWraparound(t *testing.T) {
	xs := []uint64{^uint64(0), 1, ^uint64(0), 2}
	got := InclusiveScanU64(xs)
	want := []uint64{^uint64(0), 0, ^uint64(0), 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wraparound scan = %v, want %v", got, want)
		}
	}
}
