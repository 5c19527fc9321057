package transforms

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"fpcompress/internal/par"
	"fpcompress/internal/simd"
	"fpcompress/internal/wordio"
)

// fcmWindow is how many nearest earlier occurrences of the same context
// hash are examined for an equal value, per paper §3.2.
const fcmWindow = 4

// fcmParallelMin is the word count from which the whole-input encoder
// uses more than one worker. Below it the partitioned passes cost more
// than a second worker saves: on a 2-vCPU Xeon VM (avx2), two workers took
// about 1.0 ms on 64 Ki words of internal/sdr data against 0.62 ms for
// one, broke even near 80 Ki words, and won clearly from 128 Ki words
// (1.5 against 1.8 ms). Tests lower it (see fcmPartWords).
var fcmParallelMin = 1 << 17

// FCM implements the Finite Context Method transformation (paper §3.2,
// Figure 6), the first stage of DPratio and the paper's GPU-friendly
// replacement for FPC's per-thread hash tables. For every 64-bit word it
// hashes the three prior words and checks whether one of the four nearest
// earlier words with exactly the same context hash holds an equal value —
// i.e. the same value was seen earlier in the same context. (The paper
// finds these by sorting (hash, index) pairs; the encoder groups words by
// exact hash instead and emits the same bytes, on up to GOMAXPROCS
// workers, see fcmForward.)
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

// EncodedCap reports the largest ForwardInto output size for a decoded input of
// n bytes (fixed header plus doubled word arrays plus the verbatim tail).
// Decoders that bound the final decoded size use it to scale the budget for
// the intermediate FCM stream.
func (FCM) EncodedCap(n int) int { return fcmHeaderLen + 2*n }

// DecodedLen reports the decoded length of an encoded stream of n bytes,
// or -1 when no stream has that length: a stream of w words and a t-byte
// tail (t < 8) is 8 + 16w + t bytes and decodes to 8w + t. The stream's
// own length prefix stays authoritative; a decoder uses this only to size
// its output before the stream is at hand.
func (FCM) DecodedLen(n int) int {
	r := n - fcmHeaderLen
	if r < 0 || r%16 >= 8 {
		return -1
	}
	return r/16*8 + r%16
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

// ForwardInto implements Transform (see the package comment for the dst
// ownership contract), encoding with up to GOMAXPROCS workers.
func (f FCM) ForwardInto(dst, src []byte) []byte {
	return f.ForwardWorkers(dst, src, 0)
}

// ForwardWorkers is ForwardInto encoding with at most workers goroutines
// (0 = GOMAXPROCS), so a caller's worker cap reaches the whole-input
// encode. The value and distance arrays are written straight into the
// output region; the hashes, positions, tables and chain links are pooled
// scratch. The worker count never changes the encoded bytes, and the
// Table encoder, which serves 16 kB chunks, always runs on one.
func (f FCM) ForwardWorkers(dst, src []byte, workers int) []byte {
	base := len(dst)
	n := len(src) / 8
	dst = Grow(dst, fcmHeaderLen+2*n*8+len(src)-n*8)
	out := dst[base:]
	wordio.PutU64(out, 0, uint64(len(src)))
	sw := wordio.In64(src)
	vw := wordio.Out64(out[fcmHeaderLen : fcmHeaderLen+n*8])
	dw := wordio.Out64(out[fcmHeaderLen+n*8 : fcmHeaderLen+2*n*8])
	if f.Table {
		fcmForwardTable(vw.W, dw.W, sw.W)
	} else if uint64(n) <= fcmNarrowMax {
		fcmForward[uint32](vw.W, dw.W, sw.W, f.window(), workers)
	} else {
		fcmForward[uint64](vw.W, dw.W, sw.W, f.window(), workers)
	}
	dw.Done()
	vw.Done()
	sw.Done()
	copy(out[fcmHeaderLen+2*n*8:], src[n*8:])
	return dst
}

// fcmContextHashes fills hw with the context hashes of positions lo,
// lo+1, ...: simd.FCMHash64 of each one's three predecessors, missing ones
// taken as zero (the first three positions hash a zero-filled window).
func fcmContextHashes(hw, sw []uint64, lo int) {
	if lo < 3 {
		var head [5]uint64
		copy(head[3:], sw[:min(len(sw), 2)])
		m := min(len(hw), 3-lo)
		simd.FCMHash64(hw[:m], head[lo:lo+m+2])
		hw, lo = hw[m:], lo+m
	}
	if len(hw) > 0 {
		simd.FCMHash64(hw, sw[lo-3:lo-1+len(hw)])
	}
}

// fcmSlotSeed keys the whole-input encoder's table slots, Mix64(h ^ seed),
// and its partitions, h*(seed|1). Mix64 is invertible, so unkeyed slots or
// partitions would let a crafted input steer every distinct context into
// one probe run or one partition and make the encode quadratic or serial.
// The seed only decides where a context is stored, never which indices
// share it, so the output does not depend on it.
var fcmSlotSeed = rand.Uint64()

// fcmPartWords is the encoder's target partition size in words: a
// partition's hashes, values, positions, table and links then take about
// 1 MiB, inside a 2 MiB L2. Tests shrink it (and fcmParallelMin) so that
// small inputs take the partitioned and parallel paths.
var fcmPartWords = 1 << 15

// fcmIndex is the encoder's position type. Tables and links hold a local
// index+1 and positions a word index, so 32 bits serve up to fcmNarrowMax
// words and larger inputs take the 64-bit instantiation.
type fcmIndex interface{ uint32 | uint64 }

// fcmNarrowMax is the largest word count encoded with 32-bit positions.
const fcmNarrowMax = math.MaxUint32 - 1

// fcmIndexPools recycle the encoder's position, table and link arrays,
// one pool per fcmIndex type.
var fcmIndexPools = [2]sync.Pool{
	{New: func() any { return new([]uint32) }},
	{New: func() any { return new([]uint64) }},
}

func fcmIndexPool[I fcmIndex]() *sync.Pool {
	var z I
	if _, narrow := any(z).(uint32); narrow {
		return &fcmIndexPools[0]
	}
	return &fcmIndexPools[1]
}

// fcmWorkers is the number of goroutines encoding n words under a cap of
// workers (0 = GOMAXPROCS); inputs below fcmParallelMin take one.
func fcmWorkers(n, workers int) int {
	if n < fcmParallelMin {
		return 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return workers
}

// fcmPlan returns the encoder's worker count and partition bits for n
// words under a cap of workers (0 = GOMAXPROCS): a partition per
// fcmPartWords words, at least one per worker and at most fcmMaxParts.
// One worker partitions only inputs of fcmSerialPartMin partitions or
// more; below that its single table is cheaper than the extra passes.
func fcmPlan(n, workers int) (w int, pbits uint) {
	w = fcmWorkers(n, workers)
	if w == 1 && n < fcmSerialPartMin*fcmPartWords {
		return 1, 0
	}
	p := min(max((n+fcmPartWords-1)/fcmPartWords, w), fcmMaxParts)
	pbits = uint(bits.Len(uint(p - 1)))
	return min(w, 1<<pbits), pbits
}

// fcmMaxParts caps the partition count. The scatter writes three streams
// per partition; past 16 partitions, on a 2-vCPU Sapphire Rapids VM, it
// slowed by more than the smaller tables saved.
const fcmMaxParts = 16

// fcmSerialPartMin is the input size, in partitions of fcmPartWords words,
// from which a single worker partitions (16 MiB at the default size).
const fcmSerialPartMin = 64

// fcmForward is the whole-input encoder, the paper's hash join done as a
// radix-partitioned one (Manegold et al.'s radix-cluster). The top pbits
// of each context hash times an odd key drawn from fcmSlotSeed (a
// multiply-shift hash) pick one of P = 1<<pbits partitions, and a stable
// scatter gathers every partition's words in index order. A word's output
// depends only on earlier words with the same hash, which share its
// partition, so each partition is encoded on its own (fcmJoinPart), in any
// order and on any worker, and the bytes do not depend on P or the worker
// count. The steps, each spread over the workers:
//
//   - count: every block of indices hashes its words and counts them per
//     partition;
//   - scatter: each block hashes its words again and writes (hash, value,
//     index) to its partitions' next positions, staging the hash and value
//     in dw and vw, and each word's position to pos;
//   - join: each partition finds its words' distances (0 for a literal)
//     and stores them over its words' indices in at;
//   - gather: every block reads its words' distances through pos and
//     writes its output words.
//
// The hashes are computed twice rather than kept, so the scratch is two
// positions per word. With one partition the words are already in order:
// the join reads the hashes and sw in place and writes the output itself,
// and there is nothing to count, scatter or gather.
func fcmForward[I fcmIndex](vw, dw, sw []uint64, window, workers int) {
	n := len(sw)
	if n == 0 {
		return
	}
	w, pbits := fcmPlan(n, workers)
	if pbits == 0 {
		hs := wordio.Scratch64(n)
		fcmContextHashes(hs.W, sw, 0)
		clear(vw)
		clear(dw)
		var j fcmJoin[I]
		j.start(n, n)
		fcmJoinPart(&j, hs.W, sw, vw, dw, window)
		j.release()
		hs.Done()
		return
	}
	parts := 1 << pbits
	shift := 64 - pbits
	key := fcmSlotSeed | 1
	// The index steps work on blocks a few times smaller than a worker's
	// share, so that a worker starting late still finds blocks to take.
	blocks := 4 * w
	span := func(b int) (int, int) { return n * b / blocks, n * (b + 1) / blocks }
	// Row b of cur holds block b's per-partition counts, then its next
	// scatter positions. Rows are padded apart by a cache line so that the
	// blocks' counters never share one.
	stride := (parts+7)&^7 + 8
	cur := make([]int, blocks*stride+parts+1)
	start := cur[blocks*stride:]
	pool := fcmIndexPool[I]()
	ap, pp := pool.Get().(*[]I), pool.Get().(*[]I)
	defer pool.Put(ap)
	defer pool.Put(pp)
	at, pos := wordio.Resize(ap, n), wordio.Resize(pp, n)
	// A partition holding more than twice its share of words is skewed
	// by repeated contexts: its table starts at twice the share and grows
	// with its distinct hashes.
	share := 2 * n >> pbits
	joins := make([]fcmJoin[I], w)
	fcmTeam(w,
		fcmStep{blocks, func(_, b int) { // count
			cnt := cur[b*stride : b*stride+parts]
			hs := wordio.Scratch64(fcmHashStep)
			for lo, hi := span(b); lo < hi; lo += fcmHashStep {
				hb := hs.W[:min(fcmHashStep, hi-lo)]
				fcmContextHashes(hb, sw, lo)
				for _, h := range hb {
					cnt[h*key>>shift]++
				}
			}
			hs.Done()
		}},
		fcmStep{1, func(int, int) { // turn counts into scatter positions
			k := 0
			for p := range parts {
				start[p] = k
				for b := range blocks {
					c := cur[b*stride+p]
					cur[b*stride+p] = k
					k += c
				}
			}
			start[parts] = n
		}},
		fcmStep{blocks, func(_, b int) { // scatter
			next := cur[b*stride : b*stride+parts]
			hs := wordio.Scratch64(fcmHashStep)
			for lo, hi := span(b); lo < hi; lo += fcmHashStep {
				hb := hs.W[:min(fcmHashStep, hi-lo)]
				fcmContextHashes(hb, sw, lo)
				fcmScatter(hb, sw[lo:], next, key, shift, dw, vw, at, pos[lo:], I(lo))
			}
			hs.Done()
		}},
		fcmStep{parts, func(worker, p int) { // join
			j := &joins[worker]
			s, e := start[p], start[p+1]
			j.start(e-s, share)
			ds := wordio.Resize(j.dp, e-s)
			clear(ds)
			// The literals' values are already staged in vw, so the join
			// stores each one back in place.
			fcmJoinPart(j, dw[s:e], vw[s:e], vw[s:e], ds, window)
			// Turn the partition-local distances into index distances
			// over the words' indices, last word first: a word's match
			// always precedes it, so its index is still there.
			pat := at[s:e]
			for k := len(ds) - 1; k >= 0; k-- {
				if d := ds[k]; d != 0 {
					pat[k] -= pat[k-int(d)]
				} else {
					pat[k] = 0
				}
			}
		}},
		fcmStep{blocks, func(_, b int) { // gather
			lo, hi := span(b)
			fcmGather(vw[lo:hi], dw[lo:hi], sw[lo:hi], pos[lo:hi], at)
		}},
	)
	for i := range joins {
		joins[i].release()
	}
}

// fcmHashStep is how many context hashes the count and scatter steps
// compute at a time: few enough to stay in L1 until used.
const fcmHashStep = 2048

// fcmScatter moves one step of words, with context hashes hs, values vs
// and indices lo, lo+1, ..., to their partitions' next positions: the
// hash to dw, the value to vw and the index to at, and each position to
// pos.
func fcmScatter[I fcmIndex](hs, vs []uint64, next []int, key uint64, shift uint, dw, vw []uint64, at, pos []I, lo I) {
	vs, pos = vs[:len(hs)], pos[:len(hs)]
	for i, h := range hs {
		p := h * key >> (shift & 63)
		k := next[p]
		next[p] = k + 1
		dw[k], vw[k], at[k], pos[i] = h, vs[i], lo+I(i), I(k)
	}
}

// fcmStep is one step of a partitioned encode: blocks independent calls
// of do, each given the calling worker and the block.
type fcmStep struct {
	blocks int
	do     func(worker, block int)
}

// fcmTeam runs steps in order on w goroutines, the partitioned encoder's
// schedule. Whichever goroutine is free takes a step's next block, and
// none starts a step before every block of the one before has finished.
// A goroutine waiting for those last blocks yields rather than parks, and
// one that starts late joins at the current step, so a slow thread
// wake-up costs the team only that thread's help. A block that panics
// ends the team, whose panic reaches the caller once every goroutine has
// returned (par.Run); the rest stop waiting for a step it cannot finish.
func fcmTeam(w int, steps ...fcmStep) {
	claimed := make([]atomic.Int64, len(steps))
	done := make([]atomic.Int64, len(steps))
	var failed atomic.Bool
	par.Run(w, func(worker int) {
		for s, st := range steps {
			for s > 0 && done[s-1].Load() < int64(steps[s-1].blocks) {
				if failed.Load() {
					return
				}
				runtime.Gosched()
			}
			for !failed.Load() {
				b := int(claimed[s].Add(1)) - 1
				if b >= st.blocks {
					break
				}
				st.do(worker, b)
				done[s].Add(1)
			}
		}
	}, func() { failed.Store(true) })
}

// fcmGather writes the output words of a run of indices, whose values
// are sw and positions pos: each one's distance, read from dists at its
// position, and its value if the distance is 0, else 0.
func fcmGather[I fcmIndex](vw, dw, sw []uint64, pos, dists []I) {
	vw, dw, pos = vw[:len(sw)], dw[:len(sw)], pos[:len(sw)]
	for i, v := range sw {
		d := uint64(dists[pos[i]])
		// (d|-d)>>63 is 1 exactly when d != 0: a branch-free select, as a
		// word's kind is unpredictable.
		vw[i], dw[i] = v&((d|-d)>>63-1), d
	}
}

// fcmJoin is one worker's join state for one partition: an
// open-addressed table holding, per distinct hash, the local index+1
// (0 = empty) of its newest word, and prev, linking every word to the
// previous one with the same hash. The table has 1<<tbits slots; a hash's
// home slot is the top tbits of Mix64(h ^ fcmSlotSeed). free counts the
// distinct hashes the table takes before it must grow.
type fcmJoin[I fcmIndex] struct {
	table, prev []I
	tp, pp, dp  *[]I // dp holds a partitioned encode's local distances
	tbits       uint
	free        int
}

// start sizes the state for a partition of n words. The table starts with
// room for min(n, expect) words at load one half and doubles whenever
// distinct hashes fill half of it, so a skewed partition (many words, few
// contexts) keeps a small table.
func (j *fcmJoin[I]) start(n, expect int) {
	if j.tp == nil {
		pool := fcmIndexPool[I]()
		j.tp, j.pp, j.dp = pool.Get().(*[]I), pool.Get().(*[]I), pool.Get().(*[]I)
	}
	j.resize(uint(bits.Len(uint(2*max(min(n, expect), 1) - 1))))
	j.prev = wordio.Resize(j.pp, n)
}

// release returns the scratch to its pools.
func (j *fcmJoin[I]) release() {
	if j.tp != nil {
		pool := fcmIndexPool[I]()
		pool.Put(j.tp)
		pool.Put(j.pp)
		pool.Put(j.dp)
	}
}

// fcmJoinPart encodes one partition: the words with context hashes hs and
// values vs, in index order. For word k it
// writes the distance, counted in the partition's words, to dists[k] if
// it is a match, and otherwise its value to lits[k]; the entries it skips
// must already read as zero.
func fcmJoinPart[I, D fcmIndex](j *fcmJoin[I], hs, vs, lits []uint64, dists []D, window int) {
	for k := 0; k < len(hs); {
		k, j.free = fcmJoinLoop(hs, vs, j.table, j.prev, j.free, 64-j.tbits, k, lits, dists, window)
		if k < len(hs) {
			j.grow(hs)
		}
	}
}

// fcmJoinLoop is fcmJoinPart's loop from word lo, over a table whose home
// slots take the keyed hash bits from sh up. Each word walks its nearest
// window same-hash predecessors, nearest first, and takes the first equal
// value. The paper's stable sort of (hash, index) pairs keeps index order
// within a hash, so the window pairs it scans before a word are these
// same predecessors in the same order: the bytes equal the sort's. It
// stops early, before the first word with a new hash once free is zero,
// and returns where it stopped and the free count.
func fcmJoinLoop[I, D fcmIndex](hs, vs []uint64, table, prev []I, free int, sh uint, lo int, lits []uint64, dists []D, window int) (int, int) {
	mask, seed := uint64(len(table)-1), fcmSlotSeed
	vs, lits, dists, prev = vs[:len(hs)], lits[:len(hs)], dists[:len(hs)], prev[:len(hs)]
	for k := lo; k < len(hs); k++ {
		h := hs[k]
		slot := wordio.Mix64(h^seed) >> (sh & 63)
		p := I(0)
		for {
			t := table[slot]
			if t == 0 {
				break
			}
			if hs[t-1] == h {
				p = t
				break
			}
			slot = (slot + 1) & mask
		}
		if p == 0 {
			if free == 0 {
				return k, 0
			}
			free--
		}
		table[slot] = I(k + 1)
		prev[k] = p
		v, d := vs[k], 0
		for w := 0; p != 0 && w < window; w++ {
			if vs[p-1] == v {
				d = k + 1 - int(p)
				break
			}
			p = prev[p-1]
		}
		if d != 0 {
			dists[k] = D(d)
		} else {
			lits[k] = v
		}
	}
	return len(hs), free
}

// resize makes the table an empty one of 1<<tbits slots, with room for
// 1<<tbits/2 distinct hashes.
func (j *fcmJoin[I]) resize(tbits uint) {
	j.tbits = tbits
	j.table = wordio.Resize(j.tp, 1<<tbits)
	clear(j.table)
	j.free = len(j.table) / 2
}

// grow doubles the table, reinserting every occupant; hs are the hashes
// of the partition's words.
func (j *fcmJoin[I]) grow(hs []uint64) {
	old := append([]I(nil), j.table...)
	j.resize(j.tbits + 1)
	sh, mask := 64-j.tbits, uint64(len(j.table)-1)
	for _, t := range old {
		if t == 0 {
			continue
		}
		j.free--
		s := wordio.Mix64(hs[t-1]^fcmSlotSeed) >> sh
		for j.table[s] != 0 {
			s = (s + 1) & mask
		}
		j.table[s] = t
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
	fcmContextHashes(hw.W, sw, 0)
	for i, v := range sw {
		slot := hw.W[i] >> (64 - fcmTableBits)
		d := uint64(0)
		if j := table[slot]; j != 0 && sw[j-1] == v {
			d, v = uint64(i+1-int(j)), 0
		}
		vw[i], dw[i] = v, d
		table[slot] = int32(i + 1)
	}
}

// InverseInto implements Transform (see the package comment for the dst
// ownership contract). It is an FCMDecoder's Begin and End over the whole
// stream: one index-order pass resolves the distances straight from the
// encoded value and distance arrays into dst, where a match copies an
// earlier output word, which is already final when reached. (The paper's
// GPU decoder walks distance chains in parallel instead, union-find style;
// on a CPU the one pass is faster.) FCM runs over the whole input, so the
// MaxDecoded chunk cap does not apply; but its decoded length can never
// exceed its encoded length, so allocation stays intrinsically bounded by
// the input size even under NoLimit.
func (FCM) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	var d FCMDecoder
	if _, err := d.Begin(dst, enc, len(enc), maxDecoded); err != nil {
		return nil, err
	}
	return d.End(enc)
}

// FCMDecoder is FCM's inverse for a stream whose bytes arrive in order,
// such as one that a chunked container decodes: Begin reads the length
// prefix, each Resolve resolves the words whose distance word has
// arrived, and End resolves the rest. Every word a distance refers to
// lies below it, so the words resolve in index order whatever the
// arrival steps, and the output is InverseInto's.
type FCMDecoder struct {
	dst      []byte // the caller's dst grown by the decoded length
	n, tail  int    // decoded words and trailing bytes
	ow       wordio.Span64
	resolved int // words of ow final so far
	err      error
}

// Begin starts decoding a stream of encLen bytes, of which enc holds the
// first ones (at least the length prefix for the stream to be valid),
// into dst with InverseInto's ownership contract. It checks the length
// prefix against encLen and maxDecoded as InverseInto does, grows dst for
// the decoded bytes, and returns their count. After a nil error, exactly
// one End or Discard must follow.
func (d *FCMDecoder) Begin(dst, enc []byte, encLen, maxDecoded int) (int, error) {
	if len(enc) < fcmHeaderLen || encLen < fcmHeaderLen {
		return 0, Corruptf("FCM: missing length prefix")
	}
	declen64 := wordio.U64(enc, 0)
	// FCM doubles the data, so the decoded length can never exceed the
	// encoded length; this also keeps the arithmetic below overflow-free.
	if declen64 > uint64(encLen) {
		return 0, Corruptf("FCM: decoded length %d exceeds encoded length %d", declen64, encLen)
	}
	if maxDecoded >= 0 && declen64 > uint64(maxDecoded) {
		return 0, Corruptf("FCM: decoded length %d exceeds budget %d", declen64, maxDecoded)
	}
	declen := int(declen64)
	n := declen / 8
	tail := declen - n*8
	if encLen < fcmHeaderLen+2*n*8+tail {
		return 0, Corruptf("FCM: truncated arrays")
	}
	base := len(dst)
	dst = Grow(dst, declen)
	*d = FCMDecoder{dst: dst, n: n, tail: tail, ow: wordio.Out64(dst[base : base+n*8])}
	return declen, nil
}

// Resolve resolves every word whose distance word enc, a longer prefix of
// the stream each call, holds. The first distance beyond its index stops
// the decode; End reports it.
func (d *FCMDecoder) Resolve(enc []byte) {
	hn := fcmHeaderLen
	hi := min(d.n, (len(enc)-hn)/8-d.n)
	lo := d.resolved
	if d.err != nil || hi <= lo {
		return
	}
	vw := wordio.In64(enc[hn+lo*8 : hn+hi*8])
	dw := wordio.In64(enc[hn+(d.n+lo)*8 : hn+(d.n+hi)*8])
	d.err = fcmResolve(d.ow.W, lo, vw.W, dw.W)
	dw.Done()
	vw.Done()
	d.resolved = hi
}

// End resolves what is left from enc, the whole stream, copies the
// trailing bytes, and returns dst grown by the decoded bytes.
func (d *FCMDecoder) End(enc []byte) ([]byte, error) {
	d.Resolve(enc)
	d.ow.Done()
	hn := fcmHeaderLen + 2*d.n*8
	if d.err == nil && (d.resolved < d.n || len(enc) < hn+d.tail) {
		d.err = Corruptf("FCM: truncated arrays")
	}
	if d.err != nil {
		return nil, d.err
	}
	copy(d.dst[len(d.dst)-d.tail:], enc[hn:hn+d.tail])
	return d.dst, nil
}

// Discard ends a decode whose output is not wanted.
func (d *FCMDecoder) Discard() { d.ow.Done() }

// fcmResolve resolves words lo .. lo+len(dists)-1 of out in index order
// from their value and distance words; every referenced word is already
// final when reached, as every word below lo is.
func fcmResolve(out []uint64, lo int, vals, dists []uint64) error {
	out, vals = out[:lo+len(dists)], vals[:len(dists)]
	for j, d := range dists {
		i := lo + j
		if d == 0 {
			out[i] = vals[j]
			continue
		}
		if d > uint64(i) {
			return Corruptf("FCM: distance %d exceeds index %d", d, i)
		}
		out[i] = out[i-int(d)]
	}
	return nil
}
