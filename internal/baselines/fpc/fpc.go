// Package fpc implements FPC (Burtscher & Ratanaworabhan, "FPC: A
// High-Speed Compressor for Double-Precision Floating-Point Data", IEEE TC
// 2009) and its parallel variant pFPC, two of the paper's CPU baselines.
//
// FPC predicts every double with two hash-table predictors — an fcm (finite
// context method) table keyed by a hash of recent values and a dfcm
// (differential fcm) table keyed by a hash of recent deltas — XORs the
// better prediction with the actual value, and encodes the residual as a
// header half-byte (1 predictor-select bit + 3 bits counting leading zero
// bytes, with the rarely useful count 4 folded into 3 as in the original)
// followed by the non-zero residual bytes.
package fpc

import (
	"errors"
	"runtime"
	"sync"

	"fpcompress/internal/bitio"
	"fpcompress/internal/wordio"
)

// ErrCorrupt reports undecodable input.
var ErrCorrupt = errors.New("fpc: corrupt input")

// DefaultTableBits sizes the two predictor tables at 2^bits entries each
// (the original's default "level" corresponds to table size; 16 gives
// 512 KiB per table, comfortably in L2).
const DefaultTableBits = 16

// FPC is the sequential compressor. The zero value uses DefaultTableBits.
type FPC struct {
	// TableBits sets each predictor table to 2^TableBits entries.
	TableBits int
}

// Name implements baselines.Compressor.
func (f *FPC) Name() string { return "FPC" }

func (f *FPC) tableBits() uint {
	if f.TableBits <= 0 {
		return DefaultTableBits
	}
	return uint(f.TableBits)
}

// lzBytes counts leading zero bytes of a residual. The 3-bit code covers
// counts {0,1,2,3,5,6,7,8}: the rarely useful count 4 is folded into 3,
// exactly as in the original FPC.
func lzBytes(r uint64) (code, count int) {
	count = wordio.Clz64(r) / 8 // 0..8
	if count == 4 {
		count = 3
	}
	if count < 4 {
		return count, count
	}
	return count - 1, count
}

// countFromCode maps the 3-bit code back to the leading-zero-byte count.
func countFromCode(code int) int {
	if code >= 4 {
		return code + 1
	}
	return code
}

// Compress implements baselines.Compressor.
func (f *FPC) Compress(src []byte) ([]byte, error) {
	n := len(src) / 8
	tail := src[n*8:]
	bits := f.tableBits()
	mask := uint64(1)<<bits - 1
	fcmTable := make([]uint64, mask+1)
	dfcmTable := make([]uint64, mask+1)

	out := bitio.AppendUvarint(nil, uint64(len(src)))
	headers := make([]byte, 0, (n+1)/2)
	data := make([]byte, 0, n*4)

	var fcmHash, dfcmHash, last uint64
	var nibbles [2]byte
	for i := 0; i < n; i++ {
		actual := wordio.U64(src, i)

		fcmPred := fcmTable[fcmHash]
		dfcmPred := dfcmTable[dfcmHash] + last

		fcmRes := actual ^ fcmPred
		dfcmRes := actual ^ dfcmPred
		res := fcmRes
		sel := 0
		if dfcmRes < fcmRes {
			res = dfcmRes
			sel = 1
		}
		code, count := lzBytes(res)
		nib := byte(sel<<3 | code)
		nibbles[i&1] = nib
		if i&1 == 1 {
			headers = append(headers, nibbles[0]<<4|nibbles[1])
		}
		for b := 7 - count; b >= 0; b-- {
			data = append(data, byte(res>>(8*b)))
		}

		// Predictor updates (hash constants from the FPC paper).
		fcmTable[fcmHash] = actual
		fcmHash = (fcmHash<<6 ^ actual>>48) & mask
		delta := actual - last
		dfcmTable[dfcmHash] = delta
		dfcmHash = (dfcmHash<<2 ^ delta>>40) & mask
		last = actual
	}
	if n&1 == 1 {
		headers = append(headers, nibbles[0]<<4)
	}
	out = append(out, headers...)
	out = append(out, data...)
	return append(out, tail...), nil
}

// Decompress implements baselines.Compressor.
func (f *FPC) Decompress(enc []byte) ([]byte, error) {
	declen64, hn := bitio.Uvarint(enc)
	// Best case is half a header byte per 8-byte value: a 16x bound.
	if hn == 0 || declen64 > uint64(len(enc))*17+64 {
		return nil, ErrCorrupt
	}
	declen := int(declen64)
	n := declen / 8
	tailLen := declen - n*8
	headerLen := (n + 1) / 2
	if len(enc) < hn+headerLen+tailLen {
		return nil, ErrCorrupt
	}
	headers := enc[hn : hn+headerLen]
	data := enc[hn+headerLen : len(enc)-tailLen]

	bits := f.tableBits()
	mask := uint64(1)<<bits - 1
	fcmTable := make([]uint64, mask+1)
	dfcmTable := make([]uint64, mask+1)

	dst := make([]byte, declen)
	var fcmHash, dfcmHash, last uint64
	pos := 0
	for i := 0; i < n; i++ {
		nib := headers[i/2]
		if i&1 == 0 {
			nib >>= 4
		}
		nib &= 0x0F
		sel := int(nib >> 3)
		count := countFromCode(int(nib & 7))
		resBytes := 8 - count
		if pos+resBytes > len(data) {
			return nil, ErrCorrupt
		}
		var res uint64
		for b := 0; b < resBytes; b++ {
			res = res<<8 | uint64(data[pos])
			pos++
		}
		var pred uint64
		if sel == 1 {
			pred = dfcmTable[dfcmHash] + last
		} else {
			pred = fcmTable[fcmHash]
		}
		actual := pred ^ res
		wordio.PutU64(dst, i, actual)

		fcmTable[fcmHash] = actual
		fcmHash = (fcmHash<<6 ^ actual>>48) & mask
		delta := actual - last
		dfcmTable[dfcmHash] = delta
		dfcmHash = (dfcmHash<<2 ^ delta>>40) & mask
		last = actual
	}
	if pos != len(data) {
		return nil, ErrCorrupt
	}
	copy(dst[n*8:], enc[len(enc)-tailLen:])
	return dst, nil
}

// PFPC is the parallel variant (Burtscher & Ratanaworabhan, DCC 2009): the
// input is split into fixed chunks and the FPC algorithm runs on each chunk
// in its own goroutine, with per-chunk predictor tables.
type PFPC struct {
	// TableBits as in FPC.
	TableBits int
	// ChunkValues is the number of doubles per chunk (0 = 1<<16).
	ChunkValues int
	// Parallelism caps worker goroutines (0 = GOMAXPROCS).
	Parallelism int
}

// Name implements baselines.Compressor.
func (p *PFPC) Name() string { return "pFPC" }

func (p *PFPC) chunkBytes() int {
	cv := p.ChunkValues
	if cv <= 0 {
		cv = 1 << 16
	}
	return cv * 8
}

// Compress implements baselines.Compressor.
func (p *PFPC) Compress(src []byte) ([]byte, error) {
	cb := p.chunkBytes()
	nChunks := (len(src) + cb - 1) / cb
	if nChunks == 0 {
		nChunks = 1
	}
	parts := make([][]byte, nChunks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, p.workers())
	var firstErr error
	var mu sync.Mutex
	for i := 0; i < nChunks; i++ {
		lo := i * cb
		hi := lo + cb
		if hi > len(src) {
			hi = len(src)
		}
		if lo > hi {
			lo = hi
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, chunk []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			f := &FPC{TableBits: p.TableBits}
			enc, err := f.Compress(chunk)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			parts[i] = enc
		}(i, src[lo:hi])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out := bitio.AppendUvarint(nil, uint64(nChunks))
	for _, part := range parts {
		out = bitio.AppendUvarint(out, uint64(len(part)))
	}
	for _, part := range parts {
		out = append(out, part...)
	}
	return out, nil
}

func (p *PFPC) workers() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Decompress implements baselines.Compressor.
func (p *PFPC) Decompress(enc []byte) ([]byte, error) {
	nChunks64, pos := bitio.Uvarint(enc)
	if pos == 0 || nChunks64 > uint64(len(enc))+1 {
		return nil, ErrCorrupt
	}
	nChunks := int(nChunks64)
	sizes := make([]int, nChunks)
	total := 0
	for i := range sizes {
		v, n := bitio.Uvarint(enc[pos:])
		// Bounded as uint64 first: a huge size would wrap as int.
		if n == 0 || v > uint64(len(enc)) {
			return nil, ErrCorrupt
		}
		sizes[i] = int(v)
		total += int(v)
		pos += n
	}
	if len(enc)-pos != total {
		return nil, ErrCorrupt
	}
	parts := make([][]byte, nChunks)
	offsets := make([]int, nChunks+1)
	offsets[0] = pos
	for i, s := range sizes {
		offsets[i+1] = offsets[i] + s
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, p.workers())
	var firstErr error
	var mu sync.Mutex
	for i := 0; i < nChunks; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			f := &FPC{TableBits: p.TableBits}
			dec, err := f.Decompress(enc[offsets[i]:offsets[i+1]])
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			parts[i] = dec
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	var out []byte
	for _, part := range parts {
		out = append(out, part...)
	}
	return out, nil
}
