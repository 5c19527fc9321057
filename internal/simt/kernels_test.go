package simt

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fpcompress/internal/container"
	"fpcompress/internal/core"
	"fpcompress/internal/wordio"
)

func kernelInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	smoothSP := make([]byte, 200000)
	v := 80.0
	for i := 0; i < len(smoothSP)/4; i++ {
		v += math.Sin(float64(i)/60) + rng.NormFloat64()*0.01
		wordio.PutU32(smoothSP, i, math.Float32bits(float32(v)))
	}
	smoothDP := make([]byte, 160000)
	d := -4000.0
	for i := 0; i < len(smoothDP)/8; i++ {
		d += math.Cos(float64(i)/45) + rng.NormFloat64()*0.003
		wordio.PutU64(smoothDP, i, math.Float64bits(d))
	}
	rnd := make([]byte, 100001)
	rng.Read(rnd)
	return map[string][]byte{
		"smoothSP": smoothSP,
		"smoothDP": smoothDP,
		"random":   rnd,
		"zeros":    make([]byte, 50000),
		"tiny":     {1, 2, 3, 4, 5},
		"empty":    {},
	}
}

// sameChunks reports where launch k stores other chunks than cpu, a
// container of the CPU engine: each chunk's stored size, raw flag and
// bytes at its look-back offset must equal the container's. With the
// header both derive from the input, that makes the kernel's container
// the CPU engine's, byte for byte.
func sameChunks(cpu []byte, k kernelLaunch) error {
	h, err := container.Parse(cpu)
	if err != nil {
		return err
	}
	if h.ChunkCount != len(k.sizes) || h.CompressedPayloadLen() != len(k.payload) {
		return fmt.Errorf("%d chunks in %d bytes, CPU %d in %d", len(k.sizes), len(k.payload), h.ChunkCount, h.CompressedPayloadLen())
	}
	off := 0
	for i, size := range k.sizes {
		chunk, raw, err := h.ChunkPayload(i)
		if err != nil {
			return err
		}
		if h.ChunkStoredLen(i) != size || raw != k.raw[i] || !bytes.Equal(chunk, k.payload[off:off+size]) {
			return fmt.Errorf("chunk %d: %d bytes, raw %v; CPU %d bytes, raw %v, or other bytes", i, size, k.raw[i], h.ChunkStoredLen(i), raw)
		}
		off += size
	}
	return nil
}

// cpuDecodeChunks decodes the chunks of launch k with a's CPU chunk codec
// and compares them with src.
func cpuDecodeChunks(a *core.Algorithm, src []byte, k kernelLaunch) error {
	cs := container.DefaultChunkSize
	off := 0
	for i, size := range k.sizes {
		chunk := k.payload[off : off+size]
		off += size
		dec := chunk
		if !k.raw[i] {
			var err error
			if dec, err = a.ChunkCodec().Inverse(chunk); err != nil {
				return fmt.Errorf("chunk %d: %v", i, err)
			}
		}
		if !bytes.Equal(dec, src[i*cs:min((i+1)*cs, len(src))]) {
			return fmt.Errorf("chunk %d decodes to other bytes", i)
		}
	}
	return nil
}

// TestKernelCompressByteIdenticalToCPU is the CPU/GPU compatibility
// property: the SIMT-structured encoder must store exactly the chunks of
// the container the CPU engine emits.
func TestKernelCompressByteIdenticalToCPU(t *testing.T) {
	for _, id := range []core.ID{core.SPspeed, core.DPspeed} {
		a, err := core.New(id)
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range kernelInputs() {
			cpu := a.Compress(src, container.Params{})
			gpu, err := KernelCompress(id, src, 7)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, name, err)
			}
			if err := sameChunks(cpu, gpu); err != nil {
				t.Errorf("%s/%s: kernel chunks differ from the CPU container's: %v", id, name, err)
			}
		}
	}
}

// TestKernelDecompressCrossDevice decodes CPU-compressed data with the
// kernel decoder and kernel-compressed chunks with the CPU decoder.
func TestKernelDecompressCrossDevice(t *testing.T) {
	for _, id := range []core.ID{core.SPspeed, core.DPspeed} {
		a, _ := core.New(id)
		for name, src := range kernelInputs() {
			cpuBlob := a.Compress(src, container.Params{})
			dec, err := KernelDecompress(cpuBlob, 5)
			if err != nil {
				t.Fatalf("%s/%s kernel decode: %v", id, name, err)
			}
			if !bytes.Equal(dec, src) {
				t.Errorf("%s/%s: kernel decode of CPU blob wrong", id, name)
			}
			gpu, err := KernelCompress(id, src, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := cpuDecodeChunks(a, src, gpu); err != nil {
				t.Errorf("%s/%s: CPU decode of kernel chunks wrong: %v", id, name, err)
			}
		}
	}
}

func TestKernelRejectsRatioModes(t *testing.T) {
	if _, err := KernelCompress(core.SPratio, []byte{1}, 2); !errors.Is(err, ErrKernelAlgorithm) {
		t.Error("SPratio accepted")
	}
	a, _ := core.New(core.DPratio)
	blob := a.Compress(make([]byte, 1000), container.Params{})
	if _, err := KernelDecompress(blob, 2); !errors.Is(err, ErrKernelAlgorithm) {
		t.Error("DPratio container accepted")
	}
}

func TestKernelBlockCountInvariance(t *testing.T) {
	src := kernelInputs()["smoothSP"]
	ref, _ := KernelCompress(core.SPspeed, src, 1)
	for _, blocks := range []int{2, 16, 0} {
		got, err := KernelCompress(core.SPspeed, src, blocks)
		if err != nil || !slices.Equal(ref.sizes, got.sizes) || !slices.Equal(ref.raw, got.raw) || !bytes.Equal(ref.payload, got.payload) {
			t.Fatalf("blocks=%d: output differs (%v)", blocks, err)
		}
	}
}

// TestSPratioKernelByteIdentical: the warp-shuffle BIT + scan/scatter RZE
// encoder must store exactly the chunks of the CPU engine's SPratio
// container, and the CPU decoder must decode them.
func TestSPratioKernelByteIdentical(t *testing.T) {
	a, _ := core.New(core.SPratio)
	for name, src := range kernelInputs() {
		cpu := a.Compress(src, container.Params{})
		gpu := KernelCompressSPratio(src, 6)
		if err := sameChunks(cpu, gpu); err != nil {
			t.Errorf("%s: SPratio kernel chunks differ from the CPU container's: %v", name, err)
		}
		if err := cpuDecodeChunks(a, src, gpu); err != nil {
			t.Errorf("%s: CPU decode of kernel SPratio chunks failed: %v", name, err)
		}
	}
}

// TestSPratioKernelDecode: the §3.2 decoder schedule must reproduce the
// original bytes from the CPU engine's containers.
func TestSPratioKernelDecode(t *testing.T) {
	a, _ := core.New(core.SPratio)
	for name, src := range kernelInputs() {
		blob := a.Compress(src, container.Params{})
		dec, err := KernelDecompressSPratio(blob, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(dec, src) {
			t.Errorf("%s: kernel SPratio decode mismatch", name)
		}
	}
	// Wrong algorithm rejected.
	s, _ := core.New(core.SPspeed)
	blob := s.Compress(make([]byte, 100), container.Params{})
	if _, err := KernelDecompressSPratio(blob, 2); err == nil {
		t.Error("SPspeed container accepted by SPratio kernel")
	}
}
