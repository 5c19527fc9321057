package wordio

import (
	"encoding/binary"
	"testing"
)

// TestViewValuesMatchAccessors checks that, whenever a view is granted, it
// reads and writes exactly the words the accessor path sees.
func TestViewValuesMatchAccessors(t *testing.T) {
	raw := make([]byte, 8*16+5)
	for i := range raw {
		raw[i] = byte(i*37 + 11)
	}
	for off := 0; off <= 8; off++ {
		b := raw[off:]
		if w, ok := View32(b); ok {
			if len(w) != len(b)/4 {
				t.Fatalf("off %d: view32 len %d, want %d", off, len(w), len(b)/4)
			}
			for i := range w {
				if w[i] != U32(b, i) {
					t.Fatalf("off %d word %d: view %08x accessor %08x", off, i, w[i], U32(b, i))
				}
			}
			if len(w) > 0 {
				w[0] ^= 0xdeadbeef
				if U32(b, 0) != w[0] {
					t.Fatalf("off %d: write through view32 not visible to accessor", off)
				}
				w[0] ^= 0xdeadbeef
			}
		}
		if w, ok := View64(b); ok {
			for i := range w {
				if w[i] != U64(b, i) {
					t.Fatalf("off %d word %d: view %016x accessor %016x", off, i, w[i], U64(b, i))
				}
			}
		}
	}
}

// TestViewShortBuffers pins that buffers without a complete word yield an
// empty view (ok true) rather than a panic or a bogus slice.
func TestViewShortBuffers(t *testing.T) {
	for n := 0; n < 4; n++ {
		if w, ok := View32(make([]byte, n)); !ok || len(w) != 0 {
			t.Fatalf("View32(len %d) = (%d words, %v), want empty ok view", n, len(w), ok)
		}
	}
	for n := 0; n < 8; n++ {
		if w, ok := View64(make([]byte, n)); !ok || len(w) != 0 {
			t.Fatalf("View64(len %d) = (%d words, %v), want empty ok view", n, len(w), ok)
		}
	}
}

// TestViewEndianness pins the little-endian interpretation: when a view is
// granted, word 0 must equal the little-endian decoding of the first bytes.
func TestViewEndianness(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if w, ok := View64(b); ok && len(w) == 1 {
		if want := binary.LittleEndian.Uint64(b); w[0] != want {
			t.Fatalf("view64 word %016x, want little-endian %016x", w[0], want)
		}
	}
}

// TestCopyInCopyOut pins In/Out at every alignment: In's words read what
// the accessors read, and after Done an Out's words are in the bytes —
// whether the helper aliased the buffer or went through scratch. The
// trailing byte past the last complete word stays untouched.
func TestCopyInCopyOut(t *testing.T) {
	raw := make([]byte, 8*16+13)
	for i := range raw {
		raw[i] = byte(i*37 + 11)
	}
	for off := 0; off <= 8; off++ {
		b := raw[off : off+8*16+5] // 33 32-bit words, 16 64-bit words, odd tail
		last := b[len(b)-1]
		in32, in64 := In32(b), In64(b)
		if len(in32.W) != len(b)/4 || len(in64.W) != len(b)/8 {
			t.Fatalf("off %d: In lengths %d/%d, want %d/%d", off, len(in32.W), len(in64.W), len(b)/4, len(b)/8)
		}
		for i, v := range in32.W {
			if v != U32(b, i) {
				t.Fatalf("off %d: In32 word %d = %08x, want %08x", off, i, v, U32(b, i))
			}
		}
		for i, v := range in64.W {
			if v != U64(b, i) {
				t.Fatalf("off %d: In64 word %d = %016x, want %016x", off, i, v, U64(b, i))
			}
		}
		in32.Done()
		in64.Done()

		out64 := Out64(b)
		for i := range out64.W {
			out64.W[i] = 0x0102030405060708 * uint64(i+1)
		}
		out64.Done()
		for i := 0; i < len(b)/8; i++ {
			if got, want := U64(b, i), 0x0102030405060708*uint64(i+1); got != want {
				t.Fatalf("off %d: Out64 word %d stored %016x, want %016x", off, i, got, want)
			}
		}
		out32 := Out32(b)
		for i := range out32.W {
			out32.W[i] = 0xa5a5a5a5 ^ uint32(i)
		}
		out32.Done()
		for i := 0; i < len(b)/4; i++ {
			if got, want := U32(b, i), 0xa5a5a5a5^uint32(i); got != want {
				t.Fatalf("off %d: Out32 word %d stored %08x, want %08x", off, i, got, want)
			}
		}
		if b[len(b)-1] != last {
			t.Fatalf("off %d: Out clobbered the trailing byte", off)
		}
	}
}
