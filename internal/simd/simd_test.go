package simd

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"fpcompress/internal/wordio"
)

// The simd package's own differential harness. Each op's scalar loop is
// its reference of record, so every test runs the op under Disable (the
// scalar body alone) and at the hardware level, across the usual
// adversarial lengths and alignments, and requires identical results;
// round trips check the scalar bodies against each other. Without
// assembly in the build both runs take the scalar body, which still
// executes every test. The bytes the scalar bodies emit are pinned by the
// codec's golden digests and container pins in the root package.

var testLengths = []int{0, 1, 3, 4, 7, 8, 11, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 512, 515, 1000, 4096, 4099}

// testBlocks are the transpose block counts.
var testBlocks = []int{1, 2, 3, 7, 8, 32, 33, 128, 129}

func fill32(r *rand.Rand, s []uint32) {
	for i := range s {
		switch r.Intn(4) {
		case 0:
			s[i] = r.Uint32()
		case 1:
			s[i] = r.Uint32() & 0xff
		case 2:
			s[i] = 0
		default:
			s[i] = uint32(int32(-1) * int32(r.Intn(1000)))
		}
	}
}

func fill64(r *rand.Rand, s []uint64) {
	for i := range s {
		switch r.Intn(4) {
		case 0:
			s[i] = r.Uint64()
		case 1:
			s[i] = r.Uint64() & 0xffff
		case 2:
			s[i] = 0
		default:
			s[i] = uint64(int64(-1) * int64(r.Intn(1000)))
		}
	}
}

// record flattens what an op produced — the slice it wrote and its scalar
// results — into one comparable word list.
func record[T byte | uint32 | uint64](s []T, scalars ...uint64) []uint64 {
	out := make([]uint64, 0, len(s)+len(scalars))
	for _, v := range s {
		out = append(out, uint64(v))
	}
	return append(out, scalars...)
}

// levels runs op under Disable and then at the hardware level and fails
// where the two records differ. op must build fresh outputs on each call.
func levels(t *testing.T, name string, op func() []uint64) {
	t.Helper()
	defer Enable()
	Disable()
	want := op()
	Enable()
	got := op()
	if len(got) != len(want) {
		t.Fatalf("%s: dispatched record has %d words, scalar %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d: dispatched %#x, scalar %#x", name, i, got[i], want[i])
		}
	}
}

func TestActiveStrings(t *testing.T) {
	a, hw := Active(), Available()
	ok := map[string]bool{"scalar": true, "avx2": true, "neon": true}
	if !ok[a] || !ok[hw] {
		t.Fatalf("Active()=%q Available()=%q, want scalar/avx2/neon", a, hw)
	}
	if !Enabled() && a != "scalar" {
		t.Fatalf("Enabled()=false but Active()=%q", a)
	}
}

func TestDisableEnable(t *testing.T) {
	defer Enable()
	Disable()
	if Active() != "scalar" || Enabled() {
		t.Fatalf("Active()=%q Enabled()=%v after Disable", Active(), Enabled())
	}
	Enable()
	if Active() != Available() {
		t.Fatalf("Active()=%q != Available()=%q after Enable", Active(), Available())
	}
}

// TestShortDstPanics: an output shorter than the job panics at every
// level before anything is written, instead of a kernel storing past the
// output's length into the rest of its backing array.
func TestShortDstPanics(t *testing.T) {
	defer Enable()
	src32, src64, srcB := make([]uint32, 64), make([]uint64, 64), make([]byte, 512)
	for i := range src32 {
		src32[i], src64[i] = uint32(i*i+1), uint64(i*i+1)
	}
	for i := range srcB {
		srcB[i] = byte(i | 1)
	}
	back32, back64, backB := make([]uint32, 64), make([]uint64, 64), make([]byte, 64)
	ops := []struct {
		name string
		op   func()
	}{
		{"DiffZigOr32", func() { DiffZigOr32(back32[:16], src32, 0) }},
		{"DiffZigOr64", func() { DiffZigOr64(back64[:16], src64, 0) }},
		{"UnDiffZig32", func() { UnDiffZig32(back32[:16], src32, 0) }},
		{"UnDiffZig64", func() { UnDiffZig64(back64[:16], src64, 0) }},
		{"NonzeroBM", func() { NonzeroBM(backB[:16], srcB) }},
		{"ChangeBM", func() { ChangeBM(backB[:16], srcB) }},
		{"FCMHash64", func() { FCMHash64(back64[:16], src64[:16]) }},
		{"BitFwd32", func() { BitFwd32(back32[:32], src32, 2) }},
	}
	for _, level := range []func(){Disable, Enable} {
		level()
		for _, c := range ops {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s at %s: short output did not panic", c.name, Active())
					}
				}()
				c.op()
			}()
			for i := range back32 {
				if back32[i] != 0 || back64[i] != 0 || backB[i] != 0 {
					t.Fatalf("%s at %s: wrote into the backing array at %d", c.name, Active(), i)
				}
			}
		}
	}
}

func TestDiffZigOr32(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range testLengths {
		for off := 0; off < 4; off++ {
			src := make([]uint32, n+off)[off:]
			fill32(r, src)
			prev := r.Uint32()
			levels(t, "DiffZigOr32", func() []uint64 {
				dst := make([]uint32, n)
				or := DiffZigOr32(dst, src, prev)
				back := make([]uint32, n)
				UnDiffZig32(back, dst, prev)
				for i := range src {
					if back[i] != src[i] {
						t.Fatalf("n=%d off=%d i=%d: round trip %#x, want %#x", n, off, i, back[i], src[i])
					}
				}
				return record(dst, uint64(or))
			})
		}
	}
}

func TestDiffZigOr64(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range testLengths {
		for off := 0; off < 4; off++ {
			src := make([]uint64, n+off)[off:]
			fill64(r, src)
			prev := r.Uint64()
			levels(t, "DiffZigOr64", func() []uint64 {
				dst := make([]uint64, n)
				or := DiffZigOr64(dst, src, prev)
				back := make([]uint64, n)
				UnDiffZig64(back, dst, prev)
				for i := range src {
					if back[i] != src[i] {
						t.Fatalf("n=%d off=%d i=%d: round trip %#x, want %#x", n, off, i, back[i], src[i])
					}
				}
				return record(dst, or)
			})
		}
	}
}

func TestUnDiffZig32(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range testLengths {
		for off := 0; off < 4; off++ {
			src := make([]uint32, n+off)[off:]
			fill32(r, src)
			prev := r.Uint32()
			levels(t, "UnDiffZig32", func() []uint64 {
				dst := make([]uint32, n)
				last := UnDiffZig32(dst, src, prev)
				// Exact aliasing (dst == src) must work: the fused inverse
				// decodes in place.
				inplace := append([]uint32(nil), src...)
				UnDiffZig32(inplace, inplace, prev)
				return append(record(dst, uint64(last)), record(inplace)...)
			})
		}
	}
}

func TestUnDiffZig64(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range testLengths {
		for off := 0; off < 4; off++ {
			src := make([]uint64, n+off)[off:]
			fill64(r, src)
			prev := r.Uint64()
			levels(t, "UnDiffZig64", func() []uint64 {
				dst := make([]uint64, n)
				last := UnDiffZig64(dst, src, prev)
				inplace := append([]uint64(nil), src...)
				UnDiffZig64(inplace, inplace, prev)
				return append(record(dst, last), record(inplace)...)
			})
		}
	}
}

func TestOrScans(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range testLengths {
		for off := 0; off < 4; off++ {
			s32 := make([]uint32, n+off)[off:]
			fill32(r, s32)
			s64 := make([]uint64, n+off)[off:]
			fill64(r, s64)
			levels(t, "OrScans", func() []uint64 {
				return []uint64{uint64(Or32(s32)), uint64(ZigOr32(s32)), Or64(s64), ZigOr64(s64)}
			})
		}
	}
}

func TestNonzeroBM(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, n := range testLengths {
		for off := 0; off < 8; off++ {
			src := make([]byte, n+off)[off:]
			wantNZ := 0
			for i := range src {
				if r.Intn(3) == 0 {
					src[i] = byte(r.Intn(256))
				}
				if src[i] != 0 {
					wantNZ++
				}
			}
			levels(t, "NonzeroBM", func() []uint64 {
				bm := make([]byte, (n+7)/8)
				for i := range bm {
					bm[i] = 0xAA // every bitmap byte must be written
				}
				nz := NonzeroBM(bm, src)
				if nz != wantNZ {
					t.Fatalf("n=%d off=%d: nonzero=%d, src has %d non-zero bytes", n, off, nz, wantNZ)
				}
				return record(bm, uint64(nz))
			})
		}
	}
}

func TestChangeBM(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range testLengths {
		for off := 0; off < 8; off++ {
			cur := make([]byte, n+off)[off:]
			// Runs of repeats with occasional changes, like real bitmap
			// levels.
			c := byte(0)
			for i := range cur {
				if r.Intn(4) == 0 {
					c = byte(r.Intn(256))
				}
				cur[i] = c
			}
			levels(t, "ChangeBM", func() []uint64 {
				bm := make([]byte, (n+7)/8)
				for i := range bm {
					bm[i] = 0xAA
				}
				ChangeBM(bm, cur)
				return record(bm)
			})
		}
	}
}

// packAndUnpack packs src after a random stream prefix, checks that
// unpacking the finished stream gives src back, and returns the record of
// the pack (its bytes and final accumulator state).
func packAndUnpack[T uint32 | uint64](t *testing.T, r *rand.Rand, src []T, keep uint, zig bool,
	pack func([]byte, int, uint64, uint, []T, uint, bool) (int, uint64, uint),
	unpack func([]T, []byte, uint64, uint, bool) uint64) []uint64 {
	nacc := uint(r.Intn(32))
	acc := uint64(r.Uint32()) & (1<<nacc - 1)
	bp := r.Intn(5)
	buf := make([]byte, bp+(int(nacc)+len(src)*int(keep))/8+16)
	pbp, pacc, pnacc := pack(buf, bp, acc, nacc, src, keep, zig)
	rec := record(buf, uint64(pbp), pacc, uint64(pnacc))
	// Flush the pending bits, then decode from the first field's bit.
	binary.BigEndian.PutUint32(buf[pbp:], uint32(pacc<<(32-pnacc)))
	back := make([]T, len(src))
	end := unpack(back, buf, uint64(bp)*8+uint64(nacc), keep, zig)
	if want := uint64(pbp)*8 + uint64(pnacc); end != want {
		t.Fatalf("n=%d keep=%d zig=%v: unpack ended at bit %d, pack at %d", len(src), keep, zig, end, want)
	}
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("n=%d keep=%d zig=%v i=%d: round trip %#x, want %#x", len(src), keep, zig, i, back[i], src[i])
		}
	}
	return rec
}

func TestPack32(t *testing.T) {
	for _, n := range testLengths {
		for keep := uint(1); keep <= 32; keep++ {
			for _, zig := range []bool{false, true} {
				seed := int64(n)<<8 | int64(keep)<<1
				r := rand.New(rand.NewSource(seed))
				src := make([]uint32, n)
				for i := range src {
					src[i] = r.Uint32() & (1<<keep - 1)
					if zig {
						// Values must zigzag into keep bits: draw from
						// unzig space.
						src[i] = wordio.UnZigZag32(src[i])
					}
				}
				levels(t, "Pack32", func() []uint64 {
					r := rand.New(rand.NewSource(seed))
					return packAndUnpack(t, r, src, keep, zig, Pack32, Unpack32)
				})
			}
		}
	}
}

func TestPack64(t *testing.T) {
	for _, n := range testLengths {
		for keep := uint(1); keep <= 64; keep++ {
			for _, zig := range []bool{false, true} {
				seed := int64(n)<<8 | int64(keep)<<1
				r := rand.New(rand.NewSource(seed))
				src := make([]uint64, n)
				for i := range src {
					v := r.Uint64()
					if keep < 64 {
						v &= 1<<keep - 1
					}
					if zig {
						v = wordio.UnZigZag64(v)
					}
					src[i] = v
				}
				levels(t, "Pack64", func() []uint64 {
					r := rand.New(rand.NewSource(seed))
					return packAndUnpack(t, r, src, keep, zig, Pack64, Unpack64)
				})
			}
		}
	}
}

// randomPad returns a bit stream holding n keep-bit fields from a random
// start bit, padded with the 8 bytes the unpackers' load window reads.
func randomPad(r *rand.Rand, n int, keep uint) ([]byte, uint64) {
	pos := uint64(r.Intn(64))
	pad := make([]byte, (pos+uint64(keep)*uint64(n)+7)/8+8)
	r.Read(pad[:len(pad)-8])
	return pad, pos
}

func TestUnpack32(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, n := range testLengths {
		for keep := uint(1); keep <= 32; keep++ {
			for _, unzig := range []bool{false, true} {
				pad, pos := randomPad(r, n, keep)
				levels(t, "Unpack32", func() []uint64 {
					dst := make([]uint32, n)
					return record(dst, Unpack32(dst, pad, pos, keep, unzig))
				})
			}
		}
	}
}

func TestUnpack64(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range testLengths {
		for keep := uint(1); keep <= 64; keep++ {
			for _, unzig := range []bool{false, true} {
				pad, pos := randomPad(r, n, keep)
				levels(t, "Unpack64", func() []uint64 {
					dst := make([]uint64, n)
					return record(dst, Unpack64(dst, pad, pos, keep, unzig))
				})
			}
		}
	}
}

// TestUnpack64Wide checks Unpack64's scalar body, which the dispatch
// levels are compared against, field by field against wordio.LoadBits
// for the widths around its 57-bit window switch, from every start bit
// within a byte, on a stream whose pad is the 8 zero bytes past its last
// field byte and no more.
func TestUnpack64Wide(t *testing.T) {
	defer Enable()
	Disable()
	r := rand.New(rand.NewSource(16))
	for keep := uint(55); keep <= 64; keep++ {
		for off := uint64(0); off < 8; off++ {
			for _, n := range []int{1, 2, 5, 67} {
				pos := 8*uint64(r.Intn(3)) + off
				pad := make([]byte, (pos+uint64(keep)*uint64(n)+7)/8+8)
				r.Read(pad[:len(pad)-8])
				for _, unzig := range []bool{false, true} {
					dst := make([]uint64, n)
					end := Unpack64(dst, pad, pos, keep, unzig)
					if want := pos + uint64(keep)*uint64(n); end != want {
						t.Fatalf("keep=%d pos=%d n=%d: ended at bit %d, want %d", keep, pos, n, end, want)
					}
					for i, got := range dst {
						want := wordio.LoadBits(pad, uint(pos)+uint(i)*keep, keep)
						if unzig {
							want = wordio.UnZigZag64(want)
						}
						if got != want {
							t.Fatalf("keep=%d pos=%d n=%d unzig=%v field %d: %#x, LoadBits %#x", keep, pos, n, unzig, i, got, want)
						}
					}
				}
			}
		}
	}
}

func TestBit32(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, nb := range testBlocks {
		src := make([]uint32, 32*nb)
		fill32(r, src)
		levels(t, "Bit32", func() []uint64 {
			planes := make([]uint32, 32*nb)
			BitFwd32(planes, src, nb)
			back := make([]uint32, 32*nb)
			BitInv32(back, planes, nb)
			for i := range src {
				if back[i] != src[i] {
					t.Fatalf("nb=%d word %d: round trip %#08x, want %#08x", nb, i, back[i], src[i])
				}
			}
			return record(planes)
		})
	}
}

func TestBit64(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, nb := range testBlocks {
		src := make([]uint64, 64*nb)
		fill64(r, src)
		levels(t, "Bit64", func() []uint64 {
			planes := make([]uint64, 64*nb)
			BitFwd64(planes, src, nb)
			back := make([]uint64, 64*nb)
			BitInv64(back, planes, nb)
			for i := range src {
				if back[i] != src[i] {
					t.Fatalf("nb=%d word %d: round trip %#016x, want %#016x", nb, i, back[i], src[i])
				}
			}
			return record(planes)
		})
	}
}

func TestFCMHash64(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, n := range testLengths {
		for off := 0; off < 4; off++ {
			src := make([]uint64, n+2+off)[off:]
			fill64(r, src)
			levels(t, "FCMHash64", func() []uint64 {
				dst := make([]uint64, n)
				FCMHash64(dst, src)
				return record(dst)
			})
		}
	}
}
