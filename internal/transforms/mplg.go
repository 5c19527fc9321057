package transforms

import (
	"encoding/binary"
	"math/bits"

	"fpcompress/internal/bitio"
	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// mplgSubchunk is the subchunk size in bytes. The paper divides each 16 kB
// chunk into 32 subchunks of 512 bytes so every subchunk can pick its own
// leading-zero count (and map onto one GPU warp).
const mplgSubchunk = 512

// MPLG implements the enhanced MPLG transformation (paper §3.1, Figure 3):
// for each 512-byte subchunk it finds the maximum word, counts that
// maximum's leading zero bits, and removes that many bits from every word in
// the subchunk, concatenating the survivors. The paper's enhancement is
// applied verbatim: if the maximum has no leading zeros — which would make
// the stage a no-op — the words are run through one extra two's-complement
// to magnitude-sign conversion, a cheap reversible mapping that frequently
// manufactures a few leading zeros, and the elimination is retried.
//
// Encoded form: uvarint decoded length, then one tightly packed bit stream:
// per subchunk a 1-bit fallback flag, a kept-bit-count field (6 bits for
// 32-bit words, 7 bits for 64-bit words), and the kept low bits of each
// word. Trailing bytes that do not fill a word follow byte-aligned.
//
// Both directions run on the words of the decoded buffer, taken through
// wordio's copy-in/copy-out: the encoder packs (simd.Pack32/Pack64) with
// a local 64-bit accumulator flushed 32 bits at a time straight into the
// output buffer, and the decoder reads (simd.Unpack32/Unpack64) through a
// 64-bit sliding load window over a zero-padded copy of the bit stream.
type MPLG struct {
	Word wordio.WordSize
	// Subchunk overrides the 512-byte subchunk size for ablation
	// experiments (0 = the paper's 512). Encoder and decoder must agree.
	Subchunk int
}

func (m MPLG) subchunk() int {
	if m.Subchunk <= 0 {
		return mplgSubchunk
	}
	return m.Subchunk
}

// wordsPerSubchunk never returns less than 1, so a misconfigured Subchunk
// below the word size cannot stall the encode/decode loops.
func (m MPLG) wordsPerSubchunk(wsize int) int {
	if wp := m.subchunk() / wsize; wp > 0 {
		return wp
	}
	return 1
}

// Name implements Transform.
func (m MPLG) Name() string {
	if m.Word == wordio.W32 {
		return "MPLG32"
	}
	return "MPLG64"
}

// Forward implements Transform.
func (m MPLG) Forward(src []byte) []byte {
	return m.ForwardInto(nil, src)
}

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract).
func (m MPLG) ForwardInto(dst, src []byte) []byte {
	if m.Word == wordio.W32 {
		sw := wordio.In32(src)
		defer sw.Done()
		return m.forward32(dst, src, sw.W)
	}
	sw := wordio.In64(src)
	defer sw.Done()
	return m.forward64(dst, src, sw.W)
}

// forward32 packs the bit stream with a register-resident accumulator:
// every write is at most 32 bits, so keeping fewer than 32 pending bits
// guarantees a write never straddles the 64-bit accumulator, and each
// flush is a single big-endian 32-bit store into the pre-grown output.
func (m MPLG) forward32(dst, src []byte, sw []uint32) []byte {
	nWords := len(src) / 4
	tail := src[nWords*4:]
	wordsPer := m.wordsPerSubchunk(4)
	nsub := 0
	if wordsPer > 0 && nWords > 0 {
		nsub = (nWords + wordsPer - 1) / wordsPer
	}
	dst = bitio.AppendUvarint(dst, uint64(len(src)))
	start0 := len(dst)
	dst = Grow(dst, (nsub*7+nWords*32+7)/8+8)
	buf := dst
	bp := start0
	var acc uint64
	var nacc uint
	for start := 0; start < nWords; start += wordsPer {
		end := start + wordsPer
		if end > nWords {
			end = nWords
		}
		sub := sw[start:end]
		// The width scan uses OR rather than max: the OR of a set has the
		// same bit length and the same top bit as its maximum, which are the
		// only two properties keep and flag derive, and OR vectorizes.
		orv := simd.Or32(sub)
		var flag uint64
		zig := false
		if orv >= 1<<31 {
			// Enhancement: one more magnitude-sign conversion, then retry.
			flag, zig = 1, true
			orv = simd.ZigOr32(sub)
		}
		keep := uint(32 - bits.LeadingZeros32(orv))
		// 1-bit flag + 6-bit kept width, MSB-first.
		acc = acc<<7 | flag<<6 | uint64(keep)
		nacc += 7
		if nacc >= 32 {
			nacc -= 32
			binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
			bp += 4
			acc &= 1<<nacc - 1
		}
		if keep == 0 {
			continue
		}
		// Every value fits in keep bits by construction of orv.
		bp, acc, nacc = simd.Pack32(buf, bp, acc, nacc, sub, keep, zig)
	}
	bp = BitFinish(buf, bp, acc, nacc)
	return append(dst[:bp], tail...)
}

// forward64 is the 64-bit variant (simd.Pack64 writes kept widths above
// 32 bits as two sub-32-bit fields, so the accumulator invariant holds).
func (m MPLG) forward64(dst, src []byte, sw []uint64) []byte {
	nWords := len(src) / 8
	tail := src[nWords*8:]
	wordsPer := m.wordsPerSubchunk(8)
	nsub := 0
	if nWords > 0 {
		nsub = (nWords + wordsPer - 1) / wordsPer
	}
	dst = bitio.AppendUvarint(dst, uint64(len(src)))
	start0 := len(dst)
	dst = Grow(dst, (nsub*8+nWords*64+7)/8+8)
	buf := dst
	bp := start0
	var acc uint64
	var nacc uint
	for start := 0; start < nWords; start += wordsPer {
		end := start + wordsPer
		if end > nWords {
			end = nWords
		}
		sub := sw[start:end]
		// OR width scan; see forward32 for the OR/max equivalence.
		orv := simd.Or64(sub)
		var flag uint64
		zig := false
		if orv >= 1<<63 {
			flag, zig = 1, true
			orv = simd.ZigOr64(sub)
		}
		keep := uint(64 - bits.LeadingZeros64(orv))
		// 1-bit flag + 7-bit kept width, MSB-first.
		acc = acc<<8 | flag<<7 | uint64(keep)
		nacc += 8
		if nacc >= 32 {
			nacc -= 32
			binary.BigEndian.PutUint32(buf[bp:], uint32(acc>>nacc))
			bp += 4
			acc &= 1<<nacc - 1
		}
		if keep == 0 {
			continue
		}
		bp, acc, nacc = simd.Pack64(buf, bp, acc, nacc, sub, keep, zig)
	}
	bp = BitFinish(buf, bp, acc, nacc)
	return append(dst[:bp], tail...)
}

// Inverse implements Transform.
func (m MPLG) Inverse(enc []byte) ([]byte, error) {
	return m.InverseInto(nil, enc, NoLimit)
}

// InverseLimit implements Transform.
func (m MPLG) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return m.InverseInto(nil, enc, maxDecoded)
}

// InverseInto implements Transform (see the package comment for the dst
// ownership contract).
func (m MPLG) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	declen64, n := bitio.Uvarint(enc)
	if n == 0 {
		return nil, Corruptf("MPLG: bad length prefix")
	}
	if err := checkDecodedLen("MPLG", declen64, maxDecoded); err != nil {
		return nil, err
	}
	declen := int(declen64)
	// Each subchunk contributes at least its header bits, bounding the
	// plausible decoded size for a given encoded size (using the
	// configured subchunk size, which the encoder must have agreed on).
	if declen > (len(enc)+2)*8*m.subchunk() {
		return nil, Corruptf("MPLG: decoded length %d implausible for %d encoded bytes", declen, len(enc))
	}
	wsize := int(m.Word)
	nWords := declen / wsize
	tailLen := declen - nWords*wsize
	wordsPer := m.wordsPerSubchunk(wsize)

	body := enc[n:]
	base := len(dst)
	dst = Grow(dst, declen)
	out := dst[base:]
	var err error
	if m.Word == wordio.W32 {
		ow := wordio.Out32(out)
		err = m.inverse32(ow.W, out, body, nWords, wordsPer, tailLen)
		ow.Done()
	} else {
		ow := wordio.Out64(out)
		err = m.inverse64(ow.W, out, body, nWords, wordsPer, tailLen)
		ow.Done()
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// inverse32 unpacks the bit stream through a 64-bit load window over a
// zero-padded pooled copy of body, so every read is one big-endian load
// plus shifts with no per-read bounds handling. Truncation is checked once
// per subchunk, before any of its reads: the reads are sequential, so a
// stream too short for any one read is too short for the batch.
func (m MPLG) inverse32(ow []uint32, out, body []byte, nWords, wordsPer, tailLen int) error {
	bp := GetBuf()
	defer PutBuf(bp)
	pad := wordio.Resize(bp, len(body)+8)
	copy(pad, body)
	clear(pad[len(body):])
	totalBits := uint(len(body)) * 8
	pos := uint(0)
	for start := 0; start < nWords; start += wordsPer {
		end := start + wordsPer
		if end > nWords {
			end = nWords
		}
		if pos+7 > totalBits {
			return Corruptf("MPLG: truncated header")
		}
		hdr := uint32(binary.BigEndian.Uint64(pad[pos>>3:])>>(57-(pos&7))) & 0x7f
		pos += 7
		keep := uint(hdr & 0x3f)
		if keep > 32 {
			return Corruptf("MPLG: kept bits %d > word size", keep)
		}
		sub := ow[start:end]
		if keep == 0 {
			// ReadBits(0) yields 0 in both flag modes (UnZigZag32(0) == 0).
			clear(sub)
			continue
		}
		if pos+keep*uint(len(sub)) > totalBits {
			return Corruptf("MPLG: truncated values")
		}
		pos = uint(simd.Unpack32(sub, pad, uint64(pos), keep, hdr>>6 == 1))
	}
	rest := int((pos + 7) / 8)
	if len(body)-rest < tailLen {
		return Corruptf("MPLG: truncated tail")
	}
	copy(out[nWords*4:], body[rest:rest+tailLen])
	return nil
}

// inverse64 is the 64-bit variant; kept widths above 57 bits can
// straddle the load window by up to 7 bits, which simd.Unpack64 reads
// from one spill byte.
func (m MPLG) inverse64(ow []uint64, out, body []byte, nWords, wordsPer, tailLen int) error {
	bp := GetBuf()
	defer PutBuf(bp)
	pad := wordio.Resize(bp, len(body)+8)
	copy(pad, body)
	clear(pad[len(body):])
	totalBits := uint(len(body)) * 8
	pos := uint(0)
	for start := 0; start < nWords; start += wordsPer {
		end := start + wordsPer
		if end > nWords {
			end = nWords
		}
		if pos+8 > totalBits {
			return Corruptf("MPLG: truncated header")
		}
		hdr := uint32(binary.BigEndian.Uint64(pad[pos>>3:])>>(56-(pos&7))) & 0xff
		pos += 8
		keep := uint(hdr & 0x7f)
		if keep > 64 {
			return Corruptf("MPLG: kept bits %d > word size", keep)
		}
		sub := ow[start:end]
		if keep == 0 {
			clear(sub)
			continue
		}
		if pos+keep*uint(len(sub)) > totalBits {
			return Corruptf("MPLG: truncated values")
		}
		pos = uint(simd.Unpack64(sub, pad, uint64(pos), keep, hdr>>7 == 1))
	}
	rest := int((pos + 7) / 8)
	if len(body)-rest < tailLen {
		return Corruptf("MPLG: truncated tail")
	}
	copy(out[nWords*8:], body[rest:rest+tailLen])
	return nil
}
