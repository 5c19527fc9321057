package container

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// chunkCRCs splits data into cs-byte chunks (the last one possibly short)
// and returns each chunk's CRC32-C and the final chunk's length.
func chunkCRCs(data []byte, cs int) ([]uint32, int) {
	var crcs []uint32
	lastLen := 0
	for lo := 0; lo < len(data); lo += cs {
		hi := min(lo+cs, len(data))
		crcs = append(crcs, crc32.Checksum(data[lo:hi], crcTable))
		lastLen = hi - lo
	}
	return crcs, lastLen
}

// TestCombineChunkCRCs checks the fold against a one-pass checksum of the
// whole input over chunk sizes from 1 byte to 64 KiB (powers of two and
// not), chunk counts from 0 to ~600, and final chunks from 1 byte to a
// full chunk.
func TestCombineChunkCRCs(t *testing.T) {
	const maxBytes = 4 << 20
	rng := rand.New(rand.NewSource(25))
	buf := make([]byte, maxBytes)
	rng.Read(buf)
	for _, cs := range []int{1, 2, 3, 7, 8, 100, 1000, 4096, 12345, DefaultChunkSize, 40000, 64 << 10} {
		for _, n := range []int{0, 1, 2, 3, 21, 64, 599} {
			if n*cs > maxBytes {
				continue
			}
			lasts := []int{cs}
			if n > 0 {
				lasts = append(lasts, 1, cs/2+1, max(cs-1, 1), 1+rng.Intn(cs))
			}
			for _, last := range lasts {
				length := 0
				if n > 0 {
					length = (n-1)*cs + last
				}
				data := buf[:length]
				crcs, lastLen := chunkCRCs(data, cs)
				if len(crcs) != n {
					t.Fatalf("cs=%d n=%d last=%d: split into %d chunks", cs, n, last, len(crcs))
				}
				want := crc32.Checksum(data, crcTable)
				if got := combineChunkCRCs(crcs, cs, lastLen); got != want {
					t.Fatalf("cs=%d n=%d last=%d: combined %08x, one pass %08x", cs, n, last, got, want)
				}
			}
		}
	}

	crcs, lastLen := chunkCRCs(buf[:20*DefaultChunkSize+12345], DefaultChunkSize)
	if allocs := testing.AllocsPerRun(100, func() { combineChunkCRCs(crcs, DefaultChunkSize, lastLen) }); allocs != 0 {
		t.Errorf("combineChunkCRCs allocates %.1f times per call", allocs)
	}
}

// TestCRCShift pins the shift factor's algebra: x^0 for no bytes, a fold
// over a run of zero bytes equal to crc32.Update over those zeros, and the
// period-31 reduction of x^(2^k) that lets shifts past 2^29 bytes reuse the
// table.
func TestCRCShift(t *testing.T) {
	if got := crcShift(0); got != crcOne {
		t.Fatalf("crcShift(0) = %08x, want x^0 = %08x", got, uint32(crcOne))
	}
	head := []byte("scientific floating-point data")
	c := crc32.Checksum(head, crcTable)
	for _, n := range []int{1, 2, 5, 8, 1000, 16384, 100003} {
		zeros := make([]byte, n)
		want := crc32.Update(c, crcTable, zeros)
		got := combineChunkCRCs([]uint32{c, crc32.Checksum(zeros, crcTable)}, len(head), n)
		if got != want {
			t.Errorf("fold past %d zero bytes = %08x, crc32.Update = %08x", n, got, want)
		}
	}

	if sq := crcMulMod(crcX2n[len(crcX2n)-1], crcX2n[len(crcX2n)-1]); sq != crcX2n[0] {
		t.Fatalf("x^(2^31) mod P = %08x, want x = %08x", sq, crcX2n[0])
	}
	// 8·2^29 = 2^32: x squared 32 times, past the end of the table.
	x := uint32(crcOne >> 1)
	for range 32 {
		x = crcMulMod(x, x)
	}
	if got := crcShift(1 << 29); got != x {
		t.Fatalf("crcShift(2^29) = %08x, want x^(2^32) = %08x", got, x)
	}
	rng := rand.New(rand.NewSource(31))
	for range 100 {
		a, b := rng.Intn(1<<30), rng.Intn(1<<30)
		if got, want := crcMulMod(crcShift(a), crcShift(b)), crcShift(a+b); got != want {
			t.Fatalf("crcShift(%d)·crcShift(%d) = %08x, crcShift(%d) = %08x", a, b, got, a+b, want)
		}
	}
}

// BenchmarkCombineChunkCRCs times the serial fold: tail is a typical
// request (21 chunks, the last one partial), full512 an 8 MiB input of
// whole chunks.
func BenchmarkCombineChunkCRCs(b *testing.B) {
	crcs := make([]uint32, 512)
	rng := rand.New(rand.NewSource(1))
	for i := range crcs {
		crcs[i] = rng.Uint32()
	}
	for _, bc := range []struct {
		name    string
		n, last int
	}{
		{"tail", 21, 12345},
		{"full512", 512, DefaultChunkSize},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for range b.N {
				combineChunkCRCs(crcs[:bc.n], DefaultChunkSize, bc.last)
			}
		})
	}
}
