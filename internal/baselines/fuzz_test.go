package baselines

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"fpcompress/internal/baselines/rans"
)

// fuzzMaxDecoded bounds what one baseline decode may return: zstdx's cap
// on its declared length, the largest of any Table 1 decoder. gzipw's
// 2 GiB read limit is out of reach of deflate from the fuzzer's inputs of
// at most 64 KiB.
const fuzzMaxDecoded = math.MaxInt32

// fuzzDecoders returns the decoder of every Table 1 compressor at each
// word size its datatype admits, each also wrapped in Batched.
func fuzzDecoders() []Compressor {
	var out []Compressor
	for _, e := range Table1() {
		for _, ws := range []int{4, 8} {
			if (ws == 4 && !e.Datatype.SupportsSingle()) || (ws == 8 && !e.Datatype.SupportsDouble()) {
				continue
			}
			c := e.New(ws)
			out = append(out, c, &Batched{Inner: c})
		}
	}
	return out
}

// FuzzBaselines feeds arbitrary bytes to every baseline decoder: each must
// fail with an error or decode to at most fuzzMaxDecoded bytes, and never
// panic. The seeds are the hostile inputs of the packages' TestGarbage
// tables and every decoder's own encodings of a few small inputs, which
// the fuzzer mutates into near-valid streams.
func FuzzBaselines(f *testing.F) {
	for _, seed := range garbageSeeds() {
		f.Add(seed)
	}
	smooth := make([]byte, 600)
	for i := 0; i+8 <= len(smooth); i += 8 {
		v := math.Float64bits(100 + math.Sin(float64(i)/40))
		for j := 0; j < 8; j++ {
			smooth[i+j] = byte(v >> (8 * j))
		}
	}
	for _, c := range fuzzDecoders() {
		for _, src := range [][]byte{nil, {1, 2, 3}, make([]byte, 64), smooth} {
			enc, err := c.Compress(src)
			if err != nil {
				f.Fatalf("%s: %v", c.Name(), err)
			}
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		for _, c := range fuzzDecoders() {
			out, err := c.Decompress(data)
			if err == nil && len(out) > fuzzMaxDecoded {
				t.Fatalf("%s: %d input bytes decoded to %d, bound %d", c.Name(), len(data), len(out), fuzzMaxDecoded)
			}
		}
	})
}

// garbageSeeds are the hostile inputs of the baseline packages'
// TestGarbage tables.
func garbageSeeds() [][]byte {
	return [][]byte{
		// lzb, zstdx: declared length 8, then a length of 2^64-1.
		{0x08, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00},
		// bwz: one block of 8 bytes at row 0, then a packed length of 2^64-1.
		{0x08, 0x08, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00},
		batchSizesWrap(),
	}
}

// batchSizesWrap is a Batched stream of two batches whose sizes, 2^63 and
// 2^63+1, wrap as int to a sum of 1, the one byte that follows them.
func batchSizesWrap() []byte {
	b := binary.AppendUvarint(nil, 2)
	b = binary.AppendUvarint(b, 1<<63)
	b = binary.AppendUvarint(b, 1<<63+1)
	return append(b, 0)
}

func TestGarbage(t *testing.T) {
	b := &Batched{Inner: Table1()[0].New(8)}
	if _, err := b.Decompress(batchSizesWrap()); err == nil {
		t.Error("wrapping batch sizes decoded without error")
	}
}

// TestDeclaredCapNotAllocated: a few bytes that declare a decoder's cap
// on the decoded length, and nothing to back it, fail without the decoder
// allocating anything near the cap.
func TestDeclaredCapNotAllocated(t *testing.T) {
	ans := func(b []byte) []byte {
		enc, err := rans.ANS{}.Compress(b)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	lits, seq := ans(nil), ans([]byte{0, 0}) // no literals, then the end marker
	zstd := binary.AppendUvarint(nil, math.MaxInt32)
	zstd = binary.AppendUvarint(zstd, uint64(len(lits)))
	zstd = append(append(zstd, lits...), seq...)
	hostile := map[string][]byte{
		"Bzip2":    binary.AppendUvarint(nil, 1<<30),
		"Cascaded": append(binary.AppendUvarint(nil, 1<<28), 0, 0), // no runs
		"ZSTD":     zstd,
	}
	for _, e := range Table1() {
		data, ok := hostile[e.Name]
		if !ok {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := e.New(8).Decompress(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: % x decoded without error", e.Name, data)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: %d bytes allocated by a refused decode", e.Name, got)
		}
	}
}
