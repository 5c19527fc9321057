package wordio

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestZigZagSmallMagnitudes(t *testing.T) {
	// ZigZag must interleave: 0,-1,1,-2,2,... -> 0,1,2,3,4,...
	want := map[int64]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4, -3: 5}
	for x, z := range want {
		if got := ZigZag64(uint64(x)); got != z {
			t.Errorf("ZigZag64(%d) = %d, want %d", x, got, z)
		}
	}
	for x, z := range want {
		if got := ZigZag32(uint32(int32(x))); got != uint32(z) {
			t.Errorf("ZigZag32(%d) = %d, want %d", x, got, z)
		}
	}
}

func TestZigZagRoundtrip(t *testing.T) {
	if err := quick.Check(func(x uint32) bool { return UnZigZag32(ZigZag32(x)) == x }, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(x uint64) bool { return UnZigZag64(ZigZag64(x)) == x }, nil); err != nil {
		t.Error(err)
	}
}

// words32 reinterprets b as a fresh []uint32. The slice length is
// len(b)/4; trailing bytes that do not fill a word are ignored.
func words32(b []byte) []uint32 {
	n := len(b) / 4
	w := make([]uint32, n)
	for i := 0; i < n; i++ {
		w[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return w
}

// bytes32 serializes words back to little-endian bytes.
func bytes32(w []uint32) []byte {
	b := make([]byte, len(w)*4)
	for i, v := range w {
		binary.LittleEndian.PutUint32(b[i*4:], v)
	}
	return b
}

func TestWordsBytesRoundtrip(t *testing.T) {
	f32 := func(b []byte) bool {
		w := words32(b)
		back := bytes32(w)
		return bytes.Equal(back, b[:len(b)/4*4])
	}
	if err := quick.Check(f32, nil); err != nil {
		t.Error(err)
	}
	f64 := func(b []byte) bool {
		w := Words64(b, false)
		back := Bytes64(w, -1)
		return bytes.Equal(back, b[:len(b)/8*8])
	}
	if err := quick.Check(f64, nil); err != nil {
		t.Error(err)
	}
}

func TestWords64Padding(t *testing.T) {
	b := []byte{1, 2, 3} // partial word
	w := Words64(b, true)
	if len(w) != 1 {
		t.Fatalf("len = %d", len(w))
	}
	if w[0] != 0x030201 {
		t.Errorf("padded word = %#x", w[0])
	}
	if got := Words64(b, false); len(got) != 0 {
		t.Errorf("unpadded should drop partial word, got %d words", len(got))
	}
}

func TestBytes64Truncation(t *testing.T) {
	w := []uint64{0x0807060504030201}
	b := Bytes64(w, 5)
	if !bytes.Equal(b, []byte{1, 2, 3, 4, 5}) {
		t.Errorf("got %v", b)
	}
}

func TestPutGetU32U64(t *testing.T) {
	b := make([]byte, 16)
	PutU32(b, 1, 0xDEADBEEF)
	if U32(b, 1) != 0xDEADBEEF {
		t.Error("U32 roundtrip failed")
	}
	PutU64(b, 1, 0x0123456789ABCDEF)
	if U64(b, 1) != 0x0123456789ABCDEF {
		t.Error("U64 roundtrip failed")
	}
}

func TestClz(t *testing.T) {
	if Clz32(0) != 32 || Clz64(0) != 64 {
		t.Error("clz of zero wrong")
	}
	if Clz32(1) != 31 || Clz64(1) != 63 {
		t.Error("clz of one wrong")
	}
	if Clz32(0x80000000) != 0 || Clz64(1<<63) != 0 {
		t.Error("clz of MSB wrong")
	}
}

func TestMix64Distributes(t *testing.T) {
	// Adjacent inputs must produce wildly different outputs (avalanche).
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
	if Mix64(0) == 0 {
		// splitmix finalizer maps 0 to 0; our variant must not be used on
		// raw zero contexts without awareness. Document the behaviour.
		t.Log("Mix64(0) == 0 (fixed point), acceptable for FCM contexts")
	}
}

func TestWordSizeString(t *testing.T) {
	if W32.String() != "u32" || W64.String() != "u64" {
		t.Error("WordSize strings wrong")
	}
	if W32.Bits() != 32 || W64.Bits() != 64 {
		t.Error("WordSize bits wrong")
	}
}
