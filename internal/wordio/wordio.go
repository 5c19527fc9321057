// Package wordio provides helpers for viewing byte slices as little-endian
// 32- or 64-bit integer words and for the bit-level scalar operations shared
// by the compression transforms (zigzag mapping, leading-zero counts).
//
// All transforms in this repository operate on the IEEE 754 bit patterns of
// the input values, never on their numeric float interpretation, which is
// what guarantees lossless operation.
package wordio

import (
	"encoding/binary"
	"math/bits"
)

// WordSize identifies the integer granularity a transform operates at.
type WordSize int

const (
	// W32 processes data as 32-bit words (single precision).
	W32 WordSize = 4
	// W64 processes data as 64-bit words (double precision).
	W64 WordSize = 8
)

// Bits returns the number of bits per word.
func (w WordSize) Bits() int { return int(w) * 8 }

// String implements fmt.Stringer.
func (w WordSize) String() string {
	if w == W32 {
		return "u32"
	}
	return "u64"
}

// ZigZag32 converts a two's-complement 32-bit value into magnitude-sign
// format: (x<<1) ^ (x>>31) with an arithmetic right shift. Values with many
// leading ones (small negatives) and values with many leading zeros (small
// positives) both map to values with only leading zeros.
func ZigZag32(x uint32) uint32 {
	return (x << 1) ^ uint32(int32(x)>>31)
}

// UnZigZag32 inverts ZigZag32.
func UnZigZag32(x uint32) uint32 {
	return (x >> 1) ^ -(x & 1)
}

// ZigZag64 is the 64-bit variant of ZigZag32.
func ZigZag64(x uint64) uint64 {
	return (x << 1) ^ uint64(int64(x)>>63)
}

// UnZigZag64 inverts ZigZag64.
func UnZigZag64(x uint64) uint64 {
	return (x >> 1) ^ -(x & 1)
}

// U32 reads the i-th little-endian 32-bit word of b.
func U32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i*4:]) }

// PutU32 writes the i-th little-endian 32-bit word of b.
func PutU32(b []byte, i int, v uint32) { binary.LittleEndian.PutUint32(b[i*4:], v) }

// U64 reads the i-th little-endian 64-bit word of b.
func U64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }

// PutU64 writes the i-th little-endian 64-bit word of b.
func PutU64(b []byte, i int, v uint64) { binary.LittleEndian.PutUint64(b[i*8:], v) }

// Words64 reinterprets b as a fresh []uint64, zero-padding a trailing
// partial word if pad is true (otherwise partial bytes are ignored).
func Words64(b []byte, pad bool) []uint64 {
	n := len(b) / 8
	rem := len(b) - n*8
	total := n
	if pad && rem > 0 {
		total++
	}
	w := make([]uint64, total)
	for i := 0; i < n; i++ {
		w[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	if pad && rem > 0 {
		var last [8]byte
		copy(last[:], b[n*8:])
		w[n] = binary.LittleEndian.Uint64(last[:])
	}
	return w
}

// Bytes64 serializes words back to little-endian bytes, truncated to n bytes.
func Bytes64(w []uint64, n int) []byte {
	b := make([]byte, len(w)*8)
	for i, v := range w {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	if n >= 0 && n < len(b) {
		b = b[:n]
	}
	return b
}

// Clz32 counts leading zero bits.
func Clz32(x uint32) int { return bits.LeadingZeros32(x) }

// Clz64 counts leading zero bits.
func Clz64(x uint64) int { return bits.LeadingZeros64(x) }

// Mix64 is a strong 64-bit finalizer (splitmix64 variant) used by the FCM
// hash and the dataset generators.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NonzeroMask8 returns one bit per byte of the little-endian word v, set
// when that byte is non-zero, with the lowest-addressed byte in the most
// significant result bit — the MSB-first order of RZE's bitmaps (byte j
// of v maps to 0x80 >> j).
//
// The SWAR: (v & 0x7f..) + 0x7f.. carries into bit 7 of any byte with a
// low bit set; OR-ing v itself covers bytes whose only set bit is bit 7.
// Multiplying the per-byte 0x01 mask by 0x8040201008040201 sums bit j*8
// into bit 63-j (the products 8j+9k collide only mod 9, so no carries),
// and the top byte of the product is the movemask.
func NonzeroMask8(v uint64) byte {
	m := (v | ((v & 0x7f7f7f7f7f7f7f7f) + 0x7f7f7f7f7f7f7f7f)) & 0x8080808080808080
	return byte(((m >> 7) * 0x8040201008040201) >> 56)
}

// LoadBits reads width bits (1 <= width <= 64) most-significant-bit-first
// at bit offset pos of pad: one big-endian 64-bit load plus at most one
// spill byte. pad must be padded so that 8 bytes past the byte holding the
// last addressed bit are readable (the decoders copy their bit regions
// into pooled scratch with 8 zero bytes appended for exactly this).
func LoadBits(pad []byte, pos, width uint) uint64 {
	off := pos & 7
	x := binary.BigEndian.Uint64(pad[pos>>3:])
	avail := 64 - off
	if width <= avail {
		v := x >> (avail - width)
		if width < 64 {
			v &= 1<<width - 1
		}
		return v
	}
	spill := width - avail // 1..7
	return (x&(1<<avail-1))<<spill | uint64(pad[pos>>3+8])>>(8-spill)
}
