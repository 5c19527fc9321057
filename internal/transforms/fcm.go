package transforms

import (
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// fcmWindow is how many nearest earlier occurrences of the same context
// hash are examined for an equal value, per paper §3.2.
const fcmWindow = 4

// fcmParallelMin is the word count above which the decoder switches to the
// parallel union-find reconstruction.
const fcmParallelMin = 1 << 16

// FCM implements the Finite Context Method transformation (paper §3.2,
// Figure 6), the first stage of DPratio and the paper's GPU-friendly
// replacement for FPC's per-thread hash tables. For every 64-bit word it
// hashes the three prior words and checks whether one of the four nearest
// earlier words with exactly the same context hash holds an equal value —
// i.e. the same value was seen earlier in the same context. (The paper
// finds these by sorting (hash, index) pairs; the encoder groups words by
// exact hash instead and emits the same bytes, see fcmForwardChained.)
// Matches are encoded as a backward distance; misses keep the raw value.
// The output is a value array and a distance array (each exactly one word
// per input word, so the stage doubles the data), which compress far
// better than the input: half the entries are zero and repeated doubles
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
// Window overrides the match window — how many same-hash predecessors are
// examined — for ablation experiments (0 = the paper's 4). The window only
// affects which matches the encoder finds; decoding is window-independent,
// so all settings interoperate.
//
// Table selects the direct-mapped hash-table encoder instead: one
// last-occurrence slot per bucket of the top hash bits (FPC-style), probed
// and updated in a single pass with a table small enough to stay
// L1-resident. The windowed (per-chunk) DPratio mode uses it. Buckets
// merge distinct hashes and keep only the newest index, so Table changes
// which matches the encoder finds: its output decodes with the same
// window-independent decoder, but the bytes differ from the exact-hash
// encoder's, and Table is part of the pipeline identity wherever outputs
// are pinned.
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
// exact-hash one: the two emit different bytes for the same input, so bench
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

// fcmTableBits sizes the direct-mapped last-occurrence table: 1<<12 slots
// (16 kB of int32) holds a 16 kB chunk's 2048 words with few collisions
// and clears with one memclr per encode.
const fcmTableBits = 12

// fcmTablePool recycles the table encoder's last-occurrence slots.
var fcmTablePool = sync.Pool{New: func() any {
	t := make([]int32, 1<<fcmTableBits)
	return &t
}}

// Forward implements Transform.
func (f FCM) Forward(src []byte) []byte {
	return f.ForwardInto(nil, src)
}

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract). The value and distance arrays are written straight
// into the output region; the hashes, slot table and chain links are
// pooled scratch.
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
		fcmForwardChained(vw.W, dw.W, sw.W, f.window())
	}
	dw.Done()
	vw.Done()
	sw.Done()
	copy(out[fcmHeaderLen+2*n*8:], src[n*8:])
	return dst
}

// fcmContextHashes fills hw (len(sw) entries) with every position's
// context hash. Positions >= 3 have three real predecessors and are
// hashed through the simd batch kernel when dispatched. The scalar loop is
// the reference; both produce fcmHash exactly, so encoder output is
// path-independent.
func fcmContextHashes(hw, sw []uint64) {
	var v1, v2, v3 uint64
	for i := 0; i < min(len(sw), 3); i++ {
		hw[i] = fcmHash(v1, v2, v3)
		v1, v2, v3 = sw[i], v1, v2
	}
	if len(sw) <= 3 || simd.FCMHash64(hw[3:], sw) {
		return
	}
	for i := 3; i < len(sw); i++ {
		hw[i] = fcmHash(sw[i-1], sw[i-2], sw[i-3])
	}
}

// fcmSlotSeed keys the chain table's slot function. Mix64 is invertible,
// so an unkeyed slot would let a crafted input steer every distinct hash
// into one probe run and make the encode quadratic. The slot only decides
// where a hash is stored, never which indices share it, so the output does
// not depend on the seed.
var fcmSlotSeed = rand.Uint64()

// fcmChainPool recycles the chained encoder's slot table and prev links.
var fcmChainPool = sync.Pool{New: func() any { return new([]uint32) }}

// fcmForwardChained is the whole-input encoder. An open-addressed table
// keyed by the exact 64-bit context hash holds each hash's newest index,
// and prev links every index to the previous one with the same hash, so
// each word walks its nearest window same-context predecessors, nearest
// first, and takes the first equal value. The paper's stable sort of
// (hash, index) pairs keeps index order within a hash, so the window
// pairs it scans before a word are these same predecessors in the same
// order: the bytes equal the sort's, found in one O(n) pass.
func fcmForwardChained(vw, dw, sw []uint64, window int) {
	n := len(sw)
	if n == 0 {
		return
	}
	hs := wordio.Scratch64(n)
	defer hs.Done()
	hw := hs.W
	fcmContextHashes(hw, sw)
	tp, pp := fcmChainPool.Get().(*[]uint32), fcmChainPool.Get().(*[]uint32)
	defer fcmChainPool.Put(tp)
	defer fcmChainPool.Put(pp)
	// A slot holds index+1 (0 = empty); at least 2n slots keep the load
	// factor at or below one half.
	tbits := bits.Len(uint(2*n - 1))
	table := wordio.Resize(tp, 1<<tbits)
	clear(table)
	mask := uint64(len(table) - 1)
	prev := wordio.Resize(pp, n)
	seed := fcmSlotSeed
	for i, h := range hw {
		s := wordio.Mix64(h^seed) >> (64 - tbits)
		p := uint32(0)
		for {
			j := table[s]
			if j == 0 {
				break
			}
			if hw[j-1] == h {
				p = j
				break
			}
			s = (s + 1) & mask
		}
		table[s] = uint32(i + 1)
		prev[i] = p
		v, d := sw[i], uint64(0)
		for k := 0; p != 0 && k < window; k++ {
			if sw[p-1] == v {
				d = uint64(i + 1 - int(p))
				break
			}
			p = prev[p-1]
		}
		if d != 0 {
			dw[i] = d
		} else {
			vw[i] = v
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
// ownership contract), resolving with up to GOMAXPROCS workers.
func (f FCM) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	return f.InverseWorkers(dst, enc, maxDecoded, 0)
}

// InverseWorkers is InverseInto resolving with at most workers goroutines
// (0 = GOMAXPROCS), so a caller's worker cap reaches the whole-input
// decode. The sequential path resolves straight from the encoded arrays
// into dst; the parallel path needs mutable value/distance arrays, which
// come from a pool. The worker count never changes the decoded bytes.
func (FCM) InverseWorkers(dst, enc []byte, maxDecoded, workers int) ([]byte, error) {
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
	if w := fcmResolveWorkers(n, workers); w > 1 {
		// The parallel resolver clobbers its value and distance arrays.
		vals, dists := wordio.Scratch64(n), wordio.Scratch64(n)
		copy(vals.W, vw.W)
		copy(dists.W, dw.W)
		err = fcmResolveParallel(ow.W, vals.W, dists.W, w)
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

// fcmResolveWorkers is the number of goroutines resolving n words under a
// cap of workers (0 = GOMAXPROCS); 1 means the sequential resolver.
func fcmResolveWorkers(n, workers int) int {
	if n < fcmParallelMin {
		return 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return workers
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
func fcmResolveParallel(out, vals, dists []uint64, workers int) error {
	n := len(vals)
	// Validate up front; workers then cannot walk out of bounds.
	for i, d := range dists {
		if d > uint64(i) {
			return Corruptf("FCM: distance %d exceeds index %d", d, i)
		}
	}
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
