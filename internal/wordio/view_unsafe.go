// Word views by pointer reinterpretation. Only little-endian targets may
// alias bytes as words (the wire format is little-endian), and only when
// the base address is word-aligned; misaligned buffers get ok == false
// and go through the copy-in/copy-out scratch, which on these targets is
// one memmove each way. The purego tag disables the unsafe path entirely
// for auditing or portability builds.

//go:build (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego

package wordio

import "unsafe"

func view32(b []byte) ([]uint32, bool) {
	n := len(b) / 4
	if n == 0 {
		return nil, true
	}
	if uintptr(unsafe.Pointer(&b[0]))&3 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n), true
}

func view64(b []byte) ([]uint64, bool) {
	n := len(b) / 8
	if n == 0 {
		return nil, true
	}
	if uintptr(unsafe.Pointer(&b[0]))&7 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), true
}

// bytesOf returns the memory of w as bytes: on a little-endian target
// that is exactly w's wire encoding.
func bytesOf[T uint32 | uint64](w []T) []byte {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*int(unsafe.Sizeof(w[0])))
}

func load32(w []uint32, b []byte)  { copy(bytesOf(w), b) }
func store32(b []byte, w []uint32) { copy(b, bytesOf(w)) }
func load64(w []uint64, b []byte)  { copy(bytesOf(w), b) }
func store64(b []byte, w []uint64) { copy(b, bytesOf(w)) }
