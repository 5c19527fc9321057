package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"

	"fpcompress/internal/sdr"
)

// corpusValues is the number of values per synthetic internal/sdr file the
// generator slices from: 256 KiB per single-precision file (90 files over
// 7 domains), 512 KiB per double-precision file (20 files over 5 domains).
const corpusValues = 1 << 16

// corpus groups one precision's sdr files by domain, in the fixed order
// internal/sdr generates them. The files do not depend on the seed; the
// seed only picks and orders slices of them.
type corpus struct {
	word    int
	domains [][]*sdr.File
}

func newCorpus(prec sdr.Precision, values int) *corpus {
	cfg := sdr.Config{ValuesPerFile: values}
	files := sdr.SingleFiles(cfg)
	if prec == sdr.Double {
		files = sdr.DoubleFiles(cfg)
	}
	c := &corpus{word: int(prec)}
	for _, d := range sdr.Domains(files) {
		var in []*sdr.File
		for _, f := range files {
			if f.Domain == d {
				in = append(in, f)
			}
		}
		c.domains = append(c.domains, in)
	}
	return c
}

// input concatenates word-aligned slices of at most slice bytes into one
// size-byte input. Every pass over the domains visits each of them once, in
// a seeded order, taking a seeded file and offset, so every input mixes all
// domains in near-equal shares and ratios stay comparable across seeds.
func (c *corpus) input(r *rand.Rand, size, slice int) []byte {
	out := make([]byte, 0, size)
	for len(out) < size {
		for _, d := range r.Perm(len(c.domains)) {
			if len(out) == size {
				break
			}
			files := c.domains[d]
			f := files[r.IntN(len(files))]
			n := min(slice, size-len(out), len(f.Data))
			off := r.IntN((len(f.Data)-n)/c.word+1) * c.word
			out = append(out, f.Data[off:off+n]...)
		}
	}
	return out
}

// newRand is the generator every workload draws from: PCG, whose output
// is fixed by the Go specification, so a seed means the same inputs on
// every toolchain.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// digestOf hashes generated inputs and the request plan into one hex
// string; the generator test pins its determinism on it.
func digestOf(parts [][]byte, ints []int64) string {
	s := sha256.New()
	var b [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(b[:], uint64(len(p)))
		s.Write(b[:])
		s.Write(p)
	}
	for _, v := range ints {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		s.Write(b[:])
	}
	return hex.EncodeToString(s.Sum(nil))
}
