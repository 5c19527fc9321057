package transforms

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// fcmWindow is how many preceding pairs (in sorted order) are examined for a
// matching earlier occurrence of the same value, per paper §3.2.
const fcmWindow = 4

// fcmParallelMin is the word count above which the decoder switches to the
// parallel union-find reconstruction.
const fcmParallelMin = 1 << 16

// FCM implements the Finite Context Method transformation (paper §3.2,
// Figure 6), the first stage of DPratio and the paper's GPU-friendly
// replacement for FPC's per-thread hash tables. For every 64-bit word it hashes the
// three prior words, sorts the (hash, index) pairs, and checks whether one
// of the four preceding pairs in sorted order carries the same hash and
// refers to an equal value — i.e. the same value was seen earlier in the
// same context. Matches are encoded as a backward distance; misses keep the
// raw value. The output is a value array and a distance array (each exactly
// one word per input word, so the stage doubles the data), which compress
// far better than the input: half the entries are zero and repeated doubles
// have become small integers.
//
// Unlike every other stage, FCM runs over the whole input rather than per
// 16 kB chunk (paper §3: "Except for FCM, all stages ... operate on chunks
// of 16 kilobytes"), because its value is finding repeats that are far
// apart.
//
// Encoded form: a fixed 8-byte little-endian decoded length (fixed so the
// arrays stay 8-byte aligned for the chunked stages that follow), the value
// array, the distance array, then any trailing bytes that did not fill a
// word.
//
// Window overrides the sorted-order match window for ablation experiments
// (0 = the paper's 4). The window only affects which matches the encoder
// finds; decoding is window-independent, so all settings interoperate.
//
// Table selects the direct-mapped hash-table encoder instead of the sorted
// pairs: one last-occurrence slot per hash bucket (FPC-style), probed and
// updated in a single O(n) pass with no sort. The windowed (per-chunk)
// DPratio mode uses it — per-chunk inputs are small enough that the table
// stays L1-resident and the sort would dominate. The table only changes
// which matches the encoder finds, so its output decodes with the same
// window-independent decoder, but the bytes differ from the sorted
// encoder's: Table is part of the pipeline identity wherever outputs are
// pinned.
type FCM struct {
	Window int
	Table  bool
}

func (f FCM) window() int {
	if f.Window <= 0 {
		return fcmWindow
	}
	return f.Window
}

// fcmHeaderLen is the fixed size of the decoded-length prefix.
const fcmHeaderLen = 8

// Name implements Transform. The table encoder is named apart from the
// sorted one: the two emit different bytes for the same input, so bench
// rows and stage listings must not conflate them.
func (f FCM) Name() string {
	if f.Table {
		return "FCM64T"
	}
	return "FCM64"
}

// EncodedCap reports the largest Forward-output size for a decoded input of
// n bytes (fixed header plus doubled word arrays plus the verbatim tail).
// Decoders that bound the final decoded size use it to scale the budget for
// the intermediate FCM stream.
func (FCM) EncodedCap(n int) int { return fcmHeaderLen + 2*n }

// fcmHash hashes the three words preceding position i (missing ones are 0).
func fcmHash(v1, v2, v3 uint64) uint64 {
	return wordio.Mix64(v1 ^ bits.RotateLeft64(v2, 23) ^ bits.RotateLeft64(v3, 47))
}

// fcmHashBlockLen is the batch size for the block-wise context hashing:
// big enough to amortize the simd kernel, small enough that the hash
// scratch stays cache-resident even for whole-input encodes.
const fcmHashBlockLen = 4096

// fcmHashBlock fills hw[j] with the context hash of position start+j of sw
// for start >= 3 (all three predecessors real), through the simd batch
// kernel when dispatched. The scalar loop is the reference; both produce
// fcmHash exactly, so encoder output is path-independent.
func fcmHashBlock(hw []uint64, sw []uint64, start int) {
	if simd.FCMHash64(hw, sw[start-3:]) {
		return
	}
	for j := range hw {
		i := start + j
		hw[j] = fcmHash(sw[i-1], sw[i-2], sw[i-3])
	}
}

// fcmTableBits sizes the direct-mapped last-occurrence table: 1<<12 slots
// (16 kB of int32) holds a 16 kB chunk's 2048 words with few collisions
// and clears with one memclr per encode.
const fcmTableBits = 12

// fcmTablePool recycles the table encoder's last-occurrence slots.
var fcmTablePool = sync.Pool{New: func() any {
	t := make([]int32, 1<<fcmTableBits)
	return &t
}}

// fcmPair couples a context hash with the input index it was computed at.
type fcmPair struct {
	hash uint64
	idx  uint32
}

// fcmPairPool recycles the encoder's (hash, index) array and its radix-sort
// double buffer.
var fcmPairPool = sync.Pool{New: func() any { return new([]fcmPair) }}

// radixSortPairs sorts pairs by hash (stably, so equal hashes keep ascending
// index order) using an LSD radix sort with 8-bit digits; tmp is the
// caller-supplied double buffer (same length as pairs).
func radixSortPairs(pairs, tmp []fcmPair) {
	n := len(pairs)
	if n < 2 {
		return
	}
	src, dst := pairs, tmp
	for shift := uint(0); shift < 64; shift += 8 {
		var count [257]int
		for i := range src {
			count[int(byte(src[i].hash>>shift))+1]++
		}
		// Skip passes where every key shares the digit.
		allSame := false
		for d := 0; d < 256; d++ {
			if count[d+1] == n {
				allSame = true
				break
			}
		}
		if allSame {
			continue
		}
		for d := 1; d < 257; d++ {
			count[d] += count[d-1]
		}
		for i := range src {
			d := byte(src[i].hash >> shift)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}

// Forward implements Transform.
func (f FCM) Forward(src []byte) []byte {
	return f.ForwardInto(nil, src)
}

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract). The value and distance arrays are written straight
// into the output region; the (hash, index) pairs and the radix-sort double
// buffer are pooled.
func (f FCM) ForwardInto(dst, src []byte) []byte {
	base := len(dst)
	n := len(src) / 8
	dst = Grow(dst, fcmHeaderLen+2*n*8+len(src)-n*8)
	out := dst[base:]
	wordio.PutU64(out, 0, uint64(len(src)))
	sw := wordio.In64(src)
	vw := wordio.Out64(out[fcmHeaderLen : fcmHeaderLen+n*8])
	dw := wordio.Out64(out[fcmHeaderLen+n*8 : fcmHeaderLen+2*n*8])
	// Each input word writes exactly one of the two arrays; the other entry
	// must read as zero, so clear both first.
	clear(vw.W)
	clear(dw.W)
	if f.Table {
		fcmForwardTable(vw.W, dw.W, sw.W)
	} else {
		fcmForwardSorted(vw.W, dw.W, sw.W, f.window())
	}
	dw.Done()
	vw.Done()
	sw.Done()
	copy(out[fcmHeaderLen+2*n*8:], src[n*8:])
	return dst
}

// fcmContextHashes fills hw (len(sw) entries) with every position's
// context hash. Positions >= 3 have three real predecessors and are
// hashed through the batch kernel.
func fcmContextHashes(hw, sw []uint64) {
	var v1, v2, v3 uint64
	for i := 0; i < min(len(sw), 3); i++ {
		hw[i] = fcmHash(v1, v2, v3)
		v1, v2, v3 = sw[i], v1, v2
	}
	if len(sw) > 3 {
		fcmHashBlock(hw[3:], sw, 3)
	}
}

// fcmForwardSorted is the sorted-pairs encoder: the (hash, index) pairs
// are radix-sorted by hash, and each word looks back up to window pairs
// in sorted order for an equal earlier value in the same context.
func fcmForwardSorted(vw, dw, sw []uint64, window int) {
	n := len(sw)
	pp, tp := fcmPairPool.Get().(*[]fcmPair), fcmPairPool.Get().(*[]fcmPair)
	defer fcmPairPool.Put(pp)
	defer fcmPairPool.Put(tp)
	pairs := wordio.Resize(pp, n)
	// Hash in cache-resident blocks so the hash scratch stays small even
	// for whole-input encodes.
	hw := wordio.Scratch64(fcmHashBlockLen)
	for off := 0; off < n; off += fcmHashBlockLen {
		m := min(n-off, fcmHashBlockLen)
		if off == 0 {
			fcmContextHashes(hw.W[:m], sw[:m])
		} else {
			fcmHashBlock(hw.W[:m], sw, off)
		}
		for j := 0; j < m; j++ {
			pairs[off+j] = fcmPair{hash: hw.W[j], idx: uint32(off + j)}
		}
	}
	hw.Done()
	radixSortPairs(pairs, wordio.Resize(tp, n))
	for p := 0; p < n; p++ {
		cur := pairs[p]
		curv := sw[cur.idx]
		matched := false
		for q := p - 1; q >= 0 && q >= p-window; q-- {
			prev := pairs[q]
			if prev.hash != cur.hash {
				break // sorted: earlier pairs cannot match either
			}
			if sw[prev.idx] == curv {
				dw[cur.idx] = uint64(cur.idx - prev.idx)
				matched = true
				break
			}
		}
		if !matched {
			vw[cur.idx] = curv
		}
	}
}

// fcmForwardTable is the Table-mode encoder: a direct-mapped
// last-occurrence table indexed by the top hash bits, probed and updated
// once per word. A slot holds index+1 (0 = empty) so the per-encode reset
// is a memclr. Any equal-value backward reference is a legal distance
// under the format, so the collision check is just value equality.
func fcmForwardTable(vw, dw, sw []uint64) {
	tp := fcmTablePool.Get().(*[]int32)
	defer fcmTablePool.Put(tp)
	table := *tp
	clear(table)
	hw := wordio.Scratch64(len(sw))
	defer hw.Done()
	fcmContextHashes(hw.W, sw)
	for i, v := range sw {
		slot := hw.W[i] >> (64 - fcmTableBits)
		if j := table[slot]; j != 0 && sw[j-1] == v {
			dw[i] = uint64(i + 1 - int(j))
		} else {
			vw[i] = v
		}
		table[slot] = int32(i + 1)
	}
}

// Inverse implements Transform. FCM runs over the whole input (no chunk
// cap applies), but its decoded length can never exceed its encoded
// length, so allocation stays intrinsically bounded by the input size.
func (f FCM) Inverse(enc []byte) ([]byte, error) {
	return f.InverseInto(nil, enc, NoLimit)
}

// InverseLimit implements Transform.
func (f FCM) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return f.InverseInto(nil, enc, maxDecoded)
}

// InverseInto implements Transform (see the package comment for the dst
// ownership contract). The sequential path resolves straight from the
// encoded arrays into dst; the parallel path needs mutable value/distance
// arrays, which come from a pool.
func (FCM) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	if len(enc) < fcmHeaderLen {
		return nil, Corruptf("FCM: missing length prefix")
	}
	declen64 := wordio.U64(enc, 0)
	hn := fcmHeaderLen
	// FCM doubles the data, so the decoded length can never exceed the
	// encoded length; this also keeps the arithmetic below overflow-free.
	if declen64 > uint64(len(enc)) {
		return nil, Corruptf("FCM: decoded length %d exceeds encoded length %d", declen64, len(enc))
	}
	if maxDecoded >= 0 && declen64 > uint64(maxDecoded) {
		return nil, Corruptf("FCM: decoded length %d exceeds budget %d", declen64, maxDecoded)
	}
	declen := int(declen64)
	n := declen / 8
	tailLen := declen - n*8
	if len(enc) < hn+2*n*8+tailLen {
		return nil, Corruptf("FCM: truncated arrays")
	}

	base := len(dst)
	dst = Grow(dst, declen)
	out := dst[base:]
	ow := wordio.Out64(out[:n*8])
	vw := wordio.In64(enc[hn : hn+n*8])
	dw := wordio.In64(enc[hn+n*8 : hn+2*n*8])
	var err error
	if n >= fcmParallelMin && runtime.GOMAXPROCS(0) > 1 {
		// The parallel resolver clobbers its value and distance arrays.
		vals, dists := wordio.Scratch64(n), wordio.Scratch64(n)
		copy(vals.W, vw.W)
		copy(dists.W, dw.W)
		err = fcmResolveParallel(ow.W, vals.W, dists.W)
		dists.Done()
		vals.Done()
	} else {
		err = fcmResolveSeq(ow.W, vw.W, dw.W)
	}
	dw.Done()
	vw.Done()
	ow.Done()
	if err != nil {
		return nil, err
	}
	copy(out[n*8:], enc[hn+2*n*8:hn+2*n*8+tailLen])
	return dst, nil
}

// fcmResolveSeq resolves distances in index order into out; every
// referenced word is already final when reached.
func fcmResolveSeq(out, vals, dists []uint64) error {
	for i, d := range dists {
		if d == 0 {
			out[i] = vals[i]
			continue
		}
		if d > uint64(i) {
			return Corruptf("FCM: distance %d exceeds index %d", d, i)
		}
		out[i] = out[i-int(d)]
	}
	return nil
}

// fcmResolveParallel is the paper's parallel "find" (union-find style)
// reconstruction into out: each worker follows non-zero distances until
// it reaches a resolved slot, then publishes its own value and clears its
// distance so other chains can stop there. The atomic store on the
// distance array is the release barrier making the preceding value write
// visible. vals and dists are clobbered.
func fcmResolveParallel(out, vals, dists []uint64) error {
	n := len(vals)
	// Validate up front; workers then cannot walk out of bounds.
	for i, d := range dists {
		if d > uint64(i) {
			return Corruptf("FCM: distance %d exceeds index %d", d, i)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	const grain = 4096
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(grain)) - grain
				if lo >= n {
					return
				}
				hi := min(lo+grain, n)
				for i := lo; i < hi; i++ {
					d := atomic.LoadUint64(&dists[i])
					if d == 0 {
						out[i] = vals[i]
						continue
					}
					j := i - int(d)
					for {
						dj := atomic.LoadUint64(&dists[j])
						if dj == 0 {
							break
						}
						j -= int(dj)
					}
					v := vals[j]
					out[i] = v
					vals[i] = v
					atomic.StoreUint64(&dists[i], 0)
				}
			}
		}()
	}
	wg.Wait()
	return nil
}
