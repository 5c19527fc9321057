// Fallback for big-endian targets and purego builds: no aliasing, so every
// kernel runs on copy-in/copy-out scratch decoded with encoding/binary.

//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) || purego

package wordio

import "encoding/binary"

func view32(b []byte) ([]uint32, bool) { return nil, len(b) < 4 }

func view64(b []byte) ([]uint64, bool) { return nil, len(b) < 8 }

func load32(w []uint32, b []byte) {
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
}

func store32(b []byte, w []uint32) {
	for i, v := range w {
		binary.LittleEndian.PutUint32(b[i*4:], v)
	}
}

func load64(w []uint64, b []byte) {
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
}

func store64(b []byte, w []uint64) {
	for i, v := range w {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
}
