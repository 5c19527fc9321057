// Package simt is a test-only functional model of the GPU
// parallelization the paper describes in §3: block-level parallel prefix
// sums built from warp-style log-step scans (for DIFFMS decoding and RZE
// compaction), warp-shuffle bit transposition (for BIT), parallel max
// reductions (for MPLG), and Merrill & Garland's decoupled look-back scan
// (for communicating chunk write positions between thread blocks), with
// the SPspeed/DPspeed and SPratio kernels built from them
// (speed_kernel_test.go, ratio_kernel_test.go) and FCM's parallel "find"
// decoder (fcm_test.go). Every file is a _test.go file, so none of it
// enters a build.
//
// Every routine here is a *parallel formulation* — data flows exactly as
// it would between GPU lanes, in log-step rounds — and is cross-checked in
// the tests against the sequential implementations in internal/transforms
// and the chunks of internal/container's CPU engine, byte for byte. That
// equivalence is the substance behind the paper's CPU/GPU compatibility
// claim: both devices must produce and accept identical bit streams.
package simt

import (
	"sync"

	"fpcompress/internal/wordio"
)

// WarpSize is the lane count of one warp.
const WarpSize = 32

// InclusiveScanU64 computes the inclusive prefix sum of xs using the
// Hillis-Steele log-step schedule: in round r every lane adds the value
// from the lane 2^r to its left, exactly like a __shfl_up-based warp scan
// extended to block width. The rounds are applied synchronously (double
// buffered), as a barrier between GPU steps would enforce.
func InclusiveScanU64(xs []uint64) []uint64 {
	cur := append([]uint64(nil), xs...)
	next := make([]uint64, len(xs))
	for step := 1; step < len(cur); step <<= 1 {
		for i := range cur {
			if i >= step {
				next[i] = cur[i] + cur[i-step]
			} else {
				next[i] = cur[i]
			}
		}
		cur, next = next, cur
	}
	return cur
}

// ExclusiveScanInts is the exclusive-scan variant used to turn per-lane
// element counts into write offsets (RZE's compaction step).
func ExclusiveScanInts(xs []int) []int {
	u := make([]uint64, len(xs))
	for i, x := range xs {
		u[i] = uint64(x)
	}
	inc := InclusiveScanU64(u)
	out := make([]int, len(xs))
	for i := range xs {
		out[i] = int(inc[i]) - xs[i]
	}
	return out
}

// MaxReduceU64 computes the maximum with a binary reduction tree (the
// shape of a warp reduction with __shfl_down), not a sequential scan.
func MaxReduceU64(xs []uint64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	cur := append([]uint64(nil), xs...)
	for len(cur) > 1 {
		half := (len(cur) + 1) / 2
		next := make([]uint64, half)
		for i := 0; i < half; i++ {
			v := cur[i]
			if j := i + half; j < len(cur) {
				if cur[j] > v {
					v = cur[j]
				}
			}
			next[i] = v
		}
		cur = next
	}
	return cur[0]
}

// WarpTransposeBits performs the BIT stage's 32x32 transposition the way
// the paper's warp kernel does (§3.2: "fast CUDA shuffle operations to
// exchange data between the threads in a warp ... in log2(32) = 5
// steps"): each of the 32 lanes holds one word; in round r every lane
// reads its __shfl_xor partner's word and swaps one bit group. The result
// equals the sequential bit-matrix transpose.
func WarpTransposeBits(words [WarpSize]uint32) [WarpSize]uint32 {
	cur := words
	masks := [5]uint32{0x0000FFFF, 0x00FF00FF, 0x0F0F0F0F, 0x33333333, 0x55555555}
	for round := 0; round < 5; round++ {
		shift := uint(16) >> round
		m := masks[round]
		var next [WarpSize]uint32
		for lane := 0; lane < WarpSize; lane++ {
			partner := lane ^ int(shift) // __shfl_xor partner
			a, b := cur[lane], cur[partner]
			if lane&int(shift) == 0 {
				// Low lane of the pair: import the partner's group from
				// `shift` positions above.
				t := (a ^ (b >> shift)) & m
				next[lane] = a ^ t
			} else {
				// High lane: the mirrored update of the same exchange.
				t := ((b << shift) ^ a) & (m << shift)
				next[lane] = a ^ t
			}
		}
		cur = next
	}
	return cur
}

// DecoupledLookback emulates Merrill & Garland's single-pass scan used to
// hand compressed-chunk write positions to the next thread block: every
// block publishes an aggregate, then resolves its exclusive prefix by
// looking back across predecessor statuses instead of waiting for a global
// barrier. Blocks run on goroutines and really do spin on their
// predecessors' published state.
func DecoupledLookback(sizes []int) []int {
	type status struct {
		mu        sync.Mutex
		aggregate int
		prefix    int
		state     int // 0 = invalid, 1 = aggregate ready, 2 = prefix ready
	}
	states := make([]status, len(sizes))
	offsets := make([]int, len(sizes))
	var wg sync.WaitGroup
	for b := range sizes {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			st := &states[b]
			st.mu.Lock()
			st.aggregate = sizes[b]
			st.state = 1
			if b == 0 {
				st.prefix = sizes[b]
				st.state = 2
			}
			st.mu.Unlock()
			if b == 0 {
				offsets[0] = 0
				return
			}
			// Look back over predecessors until one has a full prefix.
			exclusive := 0
			for p := b - 1; p >= 0; {
				ps := &states[p]
				ps.mu.Lock()
				state := ps.state
				agg := ps.aggregate
				pre := ps.prefix
				ps.mu.Unlock()
				switch state {
				case 2:
					exclusive += pre
					p = -1 // done
				case 1:
					exclusive += agg
					p--
				default:
					// Predecessor not ready: spin (a real GPU would too).
					continue
				}
			}
			offsets[b] = exclusive
			st.mu.Lock()
			st.prefix = exclusive + sizes[b]
			st.state = 2
			st.mu.Unlock()
		}(b)
	}
	wg.Wait()
	return offsets
}

// BlockDiffMSDecode64 is the paper's parallel DIFFMS decoder: instead of
// the sequential running sum, the block un-zigzags every word in parallel
// and reconstructs the values with a block-level inclusive scan (§3.1:
// "difference decoding ... is implemented using a block-level parallel
// prefix sum").
func BlockDiffMSDecode64(enc []byte) []byte {
	n := len(enc) / 8
	diffs := make([]uint64, n)
	for i := 0; i < n; i++ { // embarrassingly parallel lane work
		diffs[i] = wordio.UnZigZag64(wordio.U64(enc, i))
	}
	vals := InclusiveScanU64(diffs)
	out := wordio.Bytes64(vals, n*8)
	return append(out, enc[n*8:]...)
}

// BlockDiffMSDecode32 is the 32-bit variant.
func BlockDiffMSDecode32(enc []byte) []byte {
	n := len(enc) / 4
	diffs := make([]uint64, n)
	for i := 0; i < n; i++ {
		diffs[i] = uint64(wordio.UnZigZag32(wordio.U32(enc, i)))
	}
	vals := InclusiveScanU64(diffs)
	out := make([]byte, n*4)
	for i := 0; i < n; i++ {
		wordio.PutU32(out, i, uint32(vals[i]))
	}
	return append(out, enc[n*4:]...)
}

// CompactNonZero performs RZE's parallel compaction: lanes own 8-byte
// groups, count their non-zero bytes, obtain write offsets with an
// exclusive scan, and scatter — the exact encoder schedule of §3.2's "RZE
// parallelization" — returning the bitmap and the compacted bytes.
func CompactNonZero(data []byte) (bitmap []byte, nonzero []byte) {
	const lane = 8
	nLanes := (len(data) + lane - 1) / lane
	counts := make([]int, nLanes)
	for l := 0; l < nLanes; l++ {
		lo, hi := l*lane, (l+1)*lane
		if hi > len(data) {
			hi = len(data)
		}
		for _, c := range data[lo:hi] {
			if c != 0 {
				counts[l]++
			}
		}
	}
	offsets := ExclusiveScanInts(counts)
	total := 0
	if nLanes > 0 {
		total = offsets[nLanes-1] + counts[nLanes-1]
	}
	bitmap = make([]byte, (len(data)+7)/8)
	nonzero = make([]byte, total)
	for l := 0; l < nLanes; l++ { // parallel scatter
		lo, hi := l*lane, (l+1)*lane
		if hi > len(data) {
			hi = len(data)
		}
		w := offsets[l]
		for i := lo; i < hi; i++ {
			if data[i] != 0 {
				bitmap[i>>3] |= 0x80 >> (i & 7)
				nonzero[w] = data[i]
				w++
			}
		}
	}
	return bitmap, nonzero
}
