// Package selector implements the auto-mode per-chunk pipeline selection
// behind the Auto32/Auto64 algorithms (ROADMAP open item #1): for every
// container chunk it prices each candidate fixed pipeline from cheap
// statistics of the DIFFMS stream and encodes only the winner, recording
// which pipeline was used in the container's per-chunk scheme table
// (container format v2, FORMAT.md).
//
// The cost model is exact wherever the transforms make that affordable:
//
//   - MPLG32/MPLG64 (the speed pipelines) are simply encoded — DIFFMS is
//     shared by every candidate and MPLG is the cheapest tail stage, so the
//     speed candidate's "prediction" is its real output, which then doubles
//     as the balance candidate's input.
//   - An RZE stage costs exactly uvarint(len) + repeat-bitmap + non-zero
//     bytes, so the balance pipelines (MPLG→RZE) are priced exactly by one
//     simd.NonzeroBM scan plus the length-only
//     transforms.RepeatBitmapLen over the already-produced MPLG output.
//   - BIT32→RZE (the single-precision ratio pipeline) is priced exactly
//     without running the transpose: a BIT output byte is non-zero iff the
//     OR of the 8 source words feeding it has the corresponding bit set, so
//     the group ORs determine both the surviving byte count and the exact
//     zero bitmap RZE will compress.
//   - RAZE→RARE (the double-precision ratio tail) is the one modeled
//     candidate: RAZE minimizes 65n − k·cnt[k] over the leading-zero
//     histogram (transforms.SplitModelBits), and a calibrated multiplier
//     accounts for the bitmap compression and the RARE pass on top.
//   - The windowed selector (NewWindowed, behind the windowed Auto64 mode)
//     adds windowed DPratio's per-chunk pipeline (FCMW64: table-FCM with
//     per-half DIFFMS64 → RAZE → RARE segments) as a fourth candidate
//     and prices both 64-bit ratio candidates exactly, by running the
//     fused single-pass kernels into pooled scratch on the (rare)
//     chunks that reach full pricing.
//
// Ties are broken toward speed: the fastest candidate within a small margin
// (a percentage of the chunk size) of the best prediction wins, which keeps
// auto mode at full speed-pipeline throughput on data where the slow
// pipelines buy little. A mis-prediction escape hatch bounds cost-model
// error: if the winner's actual encoded size exceeds its prediction by more
// than 25%, the runner-up is encoded too and the smaller result is kept.
//
// Everything runs allocation-free on the hot path: all scratch (the
// tentative MPLG encoding, bitmaps, the fused pass's gate statistics)
// lives in a pooled per-call state, and selection happens inside the
// container's parallel chunk workers. The DIFFMS stream itself is never
// materialized: the fused speed kernel accumulates what pricing needs,
// and the ratio candidates encode through their fused kernels.
package selector

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"fpcompress/internal/bitio"
	"fpcompress/internal/simd"
	"fpcompress/internal/transforms"
	"fpcompress/internal/transforms/fused"
	"fpcompress/internal/wordio"
)

// Scheme identifiers stored in the container v2 per-chunk scheme table.
// Non-raw values deliberately equal the core.ID of the fixed algorithm
// whose chunked pipeline encoded the chunk, so a scheme byte reads as "this
// chunk decodes like a chunk of that fixed algorithm".
const (
	// SchemeRaw marks a chunk stored verbatim (the container's raw
	// fallback). It is produced by the container layer, never by the
	// selector, and the v2 parser enforces that raw chunks carry it.
	SchemeRaw byte = 0
	// SchemeMPLG32 is DIFFMS32 → MPLG32 (SPspeed's pipeline).
	SchemeMPLG32 byte = 1
	// SchemeBitRZE32 is DIFFMS32 → BIT32 → RZE (SPratio's pipeline).
	SchemeBitRZE32 byte = 2
	// SchemeMPLG64 is DIFFMS64 → MPLG64 (DPspeed's pipeline).
	SchemeMPLG64 byte = 3
	// SchemeRazeRare64 is DIFFMS64 → RAZE → RARE (DPratio's chunked
	// pipeline; the FCM preconditioner is whole-input and cannot apply to
	// independently decodable chunks).
	SchemeRazeRare64 byte = 4
	// SchemeMPLGRZE32 is DIFFMS32 → MPLG32 → RZE (SPbalance's pipeline).
	SchemeMPLGRZE32 byte = 5
	// SchemeMPLGRZE64 is DIFFMS64 → MPLG64 → RZE (DPbalance's pipeline).
	SchemeMPLGRZE64 byte = 6
	// SchemeFCMRazeRare64 is FCMW64 — windowed DPratio's chunk pipeline:
	// FCM(table) with the predictor reset per chunk, the value and distance
	// halves of its stream each encoded by an independent DIFFMS64 → RAZE →
	// RARE segment (transforms.FCMW). Only the windowed selector
	// (NewWindowed) emits it, inside container v4; both selectors decode it.
	SchemeFCMRazeRare64 byte = 7

	// NumSchemes bounds the valid scheme byte range.
	NumSchemes = 8
)

// ErrScheme is the typed error wrapped by every scheme-routing failure:
// a scheme byte that is unknown, names a pipeline of the other word size,
// or marks a raw chunk reaching the codec layer.
var ErrScheme = errors.New("selector: bad chunk scheme")

// schemeErrf builds an ErrScheme-wrapped error.
func schemeErrf(format string, a ...any) error {
	return fmt.Errorf("%w: %s", ErrScheme, fmt.Sprintf(format, a...))
}

// SchemeName returns a short human-readable name for a scheme byte, used by
// the fpcz -stats breakdown and the fpcd metrics snapshot.
func SchemeName(scheme byte) string {
	switch scheme {
	case SchemeRaw:
		return "raw"
	case SchemeMPLG32:
		return "mplg32"
	case SchemeBitRZE32:
		return "bit+rze32"
	case SchemeMPLG64:
		return "mplg64"
	case SchemeRazeRare64:
		return "raze+rare64"
	case SchemeMPLGRZE32:
		return "mplg+rze32"
	case SchemeMPLGRZE64:
		return "mplg+rze64"
	case SchemeFCMRazeRare64:
		return "fcm+raze+rare64"
	}
	return fmt.Sprintf("scheme%d", scheme)
}

// ValidScheme reports whether a non-raw scheme byte names a pipeline of the
// given word size.
func ValidScheme(word wordio.WordSize, scheme byte) bool {
	if word == wordio.W32 {
		return scheme == SchemeMPLG32 || scheme == SchemeBitRZE32 || scheme == SchemeMPLGRZE32
	}
	return scheme == SchemeMPLG64 || scheme == SchemeRazeRare64 ||
		scheme == SchemeMPLGRZE64 || scheme == SchemeFCMRazeRare64
}

// RAZE→RARE cost model calibration (see calibrateRazeRare in the tests):
// predicted bytes = model·num/den + len(chunk)·slackPct/100 + floor, where
// model is transforms.SplitModelBits over the DIFFMS stream's leading-zero
// histogram. The multiplier folds together the repeat-bitmap compression
// (actual RAZE ≤ model) and the RARE pass on top of it.
const (
	razeRareNum   = 31
	razeRareDen   = 32
	razeRareFloor = 16
)

// marginPctFor returns the speed-bias tie-break margin as a percentage of
// the chunk length: the fastest candidate predicted within margin of the
// best prediction is chosen. The values come from per-chunk gap histograms
// over the SDRBench-derived corpora: nearly all chunks where a slow
// pipeline wins at all win by either <2% (noise floor, not worth 2-6x the
// encode time) or >8% (clearly worth it).
func marginPctFor(word wordio.WordSize) int {
	if word == wordio.W32 {
		return 4
	}
	return 2
}

// Selector prices and encodes chunks for one word size. It is stateless
// apart from immutable configuration: one instance may be used from any
// number of container workers concurrently.
type Selector struct {
	word      wordio.WordSize
	marginPct int
	cands     [4]byte // candidate schemes, fastest first; first nc are valid
	nc        int
	windowed  bool                            // NewWindowed: the FCM candidate joins, priced exactly
	full      [NumSchemes]transforms.Pipeline // stage-by-stage pipelines by scheme
	fspeed    speedKernel                     // fused speed encoder (DIFFMS+MPLG with gate statistics)
	fusedK    [NumSchemes]fused.Kernel        // fused kernels by scheme (nil where no fusion exists)
}

// speedKernel is the fused speed-pipeline encoder the hot path runs: a
// fused.Kernel that also accumulates the speed-wins gate's statistics
// (group ORs for the exact BIT32→RZE price, the leading-zero histogram for
// the RAZE→RARE model) during its single pass, so the gate never has to
// materialize or re-read the DIFFMS stream. Both fused speed kernels
// implement it.
type speedKernel interface {
	fused.Kernel
	ForwardStatsInto(dst, src []byte, gs *fused.GateStats) []byte
}

// New returns the selector for one word size.
func New(word wordio.WordSize) *Selector {
	s := &Selector{
		word:      word,
		marginPct: marginPctFor(word),
	}
	diff := transforms.DiffMS{Word: word}
	mplg := transforms.MPLG{Word: word}
	s.nc = 3
	if word == wordio.W32 {
		s.cands = [4]byte{SchemeMPLG32, SchemeMPLGRZE32, SchemeBitRZE32}
		s.full[SchemeMPLG32] = transforms.Pipeline{diff, mplg}
		s.full[SchemeMPLGRZE32] = transforms.Pipeline{diff, mplg, transforms.RZE{}}
		s.full[SchemeBitRZE32] = transforms.Pipeline{diff, transforms.Bit{Word: word}, transforms.RZE{}}
		s.fspeed = fused.NewSpeed32()
	} else {
		s.cands = [4]byte{SchemeMPLG64, SchemeMPLGRZE64, SchemeRazeRare64}
		s.full[SchemeMPLG64] = transforms.Pipeline{diff, mplg}
		s.full[SchemeMPLGRZE64] = transforms.Pipeline{diff, mplg, transforms.RZE{}}
		s.full[SchemeRazeRare64] = transforms.Pipeline{diff, transforms.RAZE{}, transforms.RARE{}}
		// Decoding routes by the chunk's recorded scheme, so both selectors
		// decode the windowed FCM scheme even though only the windowed one
		// emits it.
		s.full[SchemeFCMRazeRare64] = transforms.Pipeline{transforms.FCMW{}}
		s.fspeed = fused.NewSpeed64()
	}
	for scheme := range s.full {
		if len(s.full[scheme]) == 0 {
			continue
		}
		if k, ok := fused.Match(s.full[scheme]); ok {
			s.fusedK[scheme] = k
		}
	}
	return s
}

// NewWindowed returns the windowed-mode selector behind the windowed Auto64
// algorithm (word must be W64, the only word size with cross-chunk
// predictor state to window). It prices one extra candidate — windowed
// DPratio's per-chunk pipeline, FCMW64 — and,
// because every chunk is self-contained, prices both ratio candidates
// exactly by encoding them through the fused kernels instead of through
// the calibrated model (so the mis-prediction escape hatch never fires).
func NewWindowed(word wordio.WordSize) *Selector {
	if word != wordio.W64 {
		panic("selector: windowed selector requires W64")
	}
	s := New(word)
	s.windowed = true
	s.cands[3] = SchemeFCMRazeRare64
	s.nc = 4
	return s
}

// Word returns the word size this selector prices for.
func (s *Selector) Word() wordio.WordSize { return s.word }

// Windowed reports whether this is the windowed-mode selector.
func (s *Selector) Windowed() bool { return s.windowed }

// Candidates returns the candidate scheme bytes, fastest first.
func (s *Selector) Candidates() []byte { return s.cands[:s.nc] }

// state is the pooled per-call scratch; every slice is reused across calls
// so the hot path allocates only on first use or growth.
type state struct {
	mplg     []byte          // tentative MPLG encoding of the chunk
	bm       []byte          // zero-bitmap scratch for RZE pricing
	alt      []byte          // escape-hatch re-encode scratch
	ratioEnc []byte          // windowed: the ratio candidate's exact encoding
	fcmEnc   []byte          // windowed: the FCM candidate's exact encoding
	gs       fused.GateStats // gate statistics from the fused speed encoder
}

var statePool = sync.Pool{New: func() any { return new(state) }}

// nonzeroCount returns the number of non-zero bytes of b at any alignment.
// The gate prices encodings that alias the container arena at arbitrary
// offsets, where an aligned-view fast path cannot engage directly — so walk
// scalar until the base pointer admits a word view, then count zero bytes
// eight at a time with the carry-free SWAR test.
func nonzeroCount(b []byte) int {
	const lo7 = 0x7F7F7F7F7F7F7F7F
	zeros, i := 0, 0
	for ; i < len(b); i++ {
		if w, ok := wordio.View64(b[i:]); ok {
			for _, v := range w {
				t := (v&lo7 + lo7) | v | lo7 // byte = 0xFF iff source byte non-zero
				zeros += bits.OnesCount64(^t &^ uint64(lo7))
			}
			i += len(w) * 8
			break
		}
		if b[i] == 0 {
			zeros++
		}
	}
	for ; i < len(b); i++ {
		if b[i] == 0 {
			zeros++
		}
	}
	return len(b) - zeros
}

// rzeCost returns the exact size RZE would encode src to, by running only
// its bitmap machinery: uvarint length + compressed bitmap + survivors.
func (st *state) rzeCost(src []byte) int {
	bm := wordio.Resize(&st.bm, (len(src)+7)/8)
	nonzero := simd.NonzeroBM(bm, src)
	return bitio.UvarintLen(uint64(len(src))) + transforms.RepeatBitmapLen(bm) + nonzero
}

// bitRZECost32 returns the exact size of BIT32→RZE over the DIFFMS stream
// without running the transpose. Its inputs are what the fused speed pass
// accumulates (fused.GateStats): the byte-swapped 8-word group ORs of the
// stream's full 32-word blocks, the stream's bytes past the last full
// block, and its total length. BIT lays full blocks out plane-major —
// output word plane*nb+k holds bit (31-plane) of each of block k's 32
// words, so its little-endian byte b covers source words k*32+(3-b)*8 …
// +8, and a group OR decides for every plane at once whether that output
// byte survives. So the ORs give both RZE's surviving-byte count and its
// exact zero bitmap. Words beyond the last full block and tail bytes are
// copied verbatim by BIT and survive iff non-zero.
func (st *state) bitRZECost32(ors []uint32, tail []byte, diffLen int) int {
	nonzero := 0
	for _, or := range ors {
		nonzero += bits.OnesCount32(or)
	}
	for _, c := range tail {
		if c != 0 {
			nonzero++
		}
	}
	ng := len(ors)
	bm := wordio.Resize(&st.bm, (diffLen+7)/8)
	pos := 0
	if ng%32 == 0 {
		// The plane-major bitmap is the bit-transpose of the group-OR array:
		// plane p's bits are bit (31-p) of each OR, groups MSB-first. Run the
		// register-tile transpose over 32-OR tiles; transposed word p, with
		// its bytes reversed to big-endian order, is plane p's next four
		// bitmap bytes — one word store each, so only the verbatim tail
		// region needs clearing.
		nt := ng / 32 // tiles = bitmap words per plane
		bmw := wordio.Out32(bm[:4*ng])
		var blk [32]uint32
		for t := 0; t < nt; t++ {
			copy(blk[:], ors[t*32:t*32+32])
			simd.Transpose32(&blk)
			for p := 0; p < 32; p++ {
				bmw.W[p*nt+t] = bits.ReverseBytes32(blk[p])
			}
		}
		bmw.Done()
		clear(bm[4*ng:])
		pos = 32 * ng
	} else if ng%8 == 0 {
		clear(bm)
		bi := 0
		for p := 0; p < 32; p++ {
			mask := uint32(0x8000_0000) >> p
			for m := 0; m < ng; m += 8 {
				var v byte
				for j := 0; j < 8; j++ {
					if ors[m+j]&mask != 0 {
						v |= 0x80 >> j
					}
				}
				bm[bi] = v
				bi++
			}
		}
		pos = 32 * ng
	} else {
		clear(bm)
		for p := 0; p < 32; p++ {
			mask := uint32(0x8000_0000) >> p
			for m := 0; m < ng; m++ {
				if ors[m]&mask != 0 {
					bm[pos>>3] |= 0x80 >> (pos & 7)
				}
				pos++
			}
		}
	}
	// Words beyond the last full block and trailing partial-word bytes are
	// copied verbatim by BIT; their bitmap bits come straight from the
	// stream's tail.
	for _, c := range tail {
		if c != 0 {
			bm[pos>>3] |= 0x80 >> (pos & 7)
		}
		pos++
	}
	return bitio.UvarintLen(uint64(diffLen)) + transforms.RepeatBitmapLen(bm) + nonzero
}

// razeRareCost64 is the modeled RAZE→RARE size over the DIFFMS stream's
// leading-zero histogram (the same histogram RAZE's own bestSplit
// minimizes over), scaled by the calibrated multiplier.
func razeRareCost64(hist *[65]int, n, chunkLen int) int {
	model := transforms.SplitModelBits(hist, n) / 8
	return model*razeRareNum/razeRareDen + (chunkLen - n*8) + razeRareFloor
}

// analyze runs the fused speed pass — the speed candidate's real encoding
// into st.mplg, plus the gate statistics into st.gs — and then the
// per-candidate pricing. preds is indexed like s.cands (fastest first);
// choice is the index of the winner under the speed-bias margin.
func (s *Selector) analyze(st *state, chunk []byte) (preds [4]int, choice int) {
	st.mplg = s.fspeed.ForwardStatsInto(st.mplg[:0], chunk, &st.gs)
	return s.price(st, chunk)
}

// price runs the per-candidate pricing over an already-computed st.mplg /
// st.gs pair (see analyze). The windowed selector prices its two ratio
// candidates exactly, by encoding them through the fused kernels into
// pooled scratch (the winner's bytes are then appended, not recomputed);
// the whole-input selectors keep the calibrated RAZE→RARE model.
func (s *Selector) price(st *state, chunk []byte) (preds [4]int, choice int) {
	preds[0] = len(st.mplg)        // speed: exact, already encoded
	preds[1] = st.rzeCost(st.mplg) // balance: exact via RZE's own bitmap machinery
	switch {
	case s.word == wordio.W32:
		preds[2] = st.bitRZECost32(st.gs.Ors, st.gs.Tail, len(chunk))
	case s.windowed:
		st.ratioEnc = s.fusedK[SchemeRazeRare64].ForwardInto(st.ratioEnc[:0], chunk)
		preds[2] = len(st.ratioEnc)
		st.fcmEnc = s.fusedK[SchemeFCMRazeRare64].ForwardInto(st.fcmEnc[:0], chunk)
		preds[3] = len(st.fcmEnc)
	default:
		preds[2] = razeRareCost64(&st.gs.Hist, st.gs.Words, len(chunk))
	}
	best := preds[0]
	for _, p := range preds[1:s.nc] {
		if p < best {
			best = p
		}
	}
	margin := len(chunk) * s.marginPct / 100
	choice = s.nc - 1
	for i, p := range preds[:s.nc] {
		if p <= best+margin {
			choice = i
			break
		}
	}
	return preds, choice
}

// encodeCandidate appends candidate i's encoding of the already-analyzed
// chunk (st.mplg, and for the windowed selector the ratio encodings price
// already produced) to dst.
func (s *Selector) encodeCandidate(st *state, dst, chunk []byte, i int) []byte {
	switch {
	case i == 0: // speed: the tentative MPLG encoding is the output
		return append(dst, st.mplg...)
	case i == 1: // balance: RZE over the MPLG encoding
		return transforms.RZE{}.ForwardInto(dst, st.mplg)
	case i == 3: // windowed FCM candidate: already encoded by price
		return append(dst, st.fcmEnc...)
	case s.windowed: // windowed ratio candidate: already encoded by price
		return append(dst, st.ratioEnc...)
	default: // ratio: its fused kernel over the chunk
		return s.fusedK[s.cands[i]].ForwardInto(dst, chunk)
	}
}

// Prediction is one candidate's predicted encoded size, reported by
// Predict for the fpcz -stats breakdown.
type Prediction struct {
	Scheme    byte
	Predicted int
}

// Predict prices chunk for every candidate (fastest first) and returns the
// index the selector would choose. It is the introspection path behind
// fpcz -stats; ForwardSchemeInto is the hot path.
func (s *Selector) Predict(chunk []byte) ([]Prediction, int) {
	st := statePool.Get().(*state)
	defer statePool.Put(st)
	preds, choice := s.analyze(st, chunk)
	out := make([]Prediction, s.nc)
	for i := range out {
		out[i] = Prediction{Scheme: s.cands[i], Predicted: preds[i]}
	}
	return out, choice
}

// speedWins is the hot-path gate: it decides, from prices no costlier than
// a pass over the speed encoding, whether the exact pricing in price is
// guaranteed to choose the speed candidate. The balance candidate is
// bounded from below — an RZE tail keeps every non-zero byte of its input,
// so uvarint(len) + non-zero count elides only the (non-negative)
// compressed bitmap — while the ratio leg is priced with the very same
// expression price uses, over the gate statistics the fused speed pass
// accumulated (exact for BIT32→RZE, the calibrated model for RAZE→RARE).
// A true return therefore never changes the selection relative to full
// pricing; a false return merely falls back to it. On homogeneous data
// the gate passes for nearly every chunk, keeping auto mode near the
// speed pipeline's throughput.
func (s *Selector) speedWins(st *state, chunk, mplgEnc []byte) bool {
	thresh := len(mplgEnc) - len(chunk)*s.marginPct/100
	if thresh <= 0 {
		return true // no candidate can beat speed by more than the margin
	}
	if s.windowed && len(mplgEnc) >= len(chunk)*7/8 {
		// The FCM candidate has no cheap lower bound — its wins come from
		// value reuse the diff pipelines cannot see. It wins essentially
		// only where those pipelines compress poorly, so a barely-compressed
		// speed encoding sends the chunk to full (exact) pricing.
		return false
	}
	// Balance (MPLG→RZE): survivors of the MPLG encoding.
	if bitio.UvarintLen(uint64(len(mplgEnc)))+nonzeroCount(mplgEnc) < thresh {
		return false
	}
	if s.word == wordio.W32 {
		// Ratio (BIT→RZE): the exact price from the accumulated group ORs.
		return st.bitRZECost32(st.gs.Ors, st.gs.Tail, len(chunk)) >= thresh
	}
	// Ratio (RAZE→RARE): the model over the accumulated histogram.
	return razeRareCost64(&st.gs.Hist, st.gs.Words, len(chunk)) >= thresh
}

// ForwardSchemeInto encodes chunk with the predicted-best candidate,
// appending to dst, and returns the grown slice plus the scheme byte for
// the container's per-chunk scheme table. The container layer still applies
// its raw fallback on top (storing the chunk verbatim with SchemeRaw if the
// returned encoding is not smaller).
func (s *Selector) ForwardSchemeInto(dst, chunk []byte) ([]byte, byte) {
	st := statePool.Get().(*state)
	defer statePool.Put(st)

	// Encode the speed candidate straight into dst: it is both the fastest
	// candidate's real output and the balance candidate's input, and when
	// the gate fires (the common case on homogeneous data) it is already in
	// place — no copy, no further pricing. The fused kernel does it in one
	// pass over the chunk, accumulating the gate's statistics as it goes,
	// so no DIFFMS stream is materialized.
	start := len(dst)
	dst = s.fspeed.ForwardStatsInto(dst, chunk, &st.gs)
	if s.speedWins(st, chunk, dst[start:]) {
		schemeCounts[s.cands[0]].Add(1)
		return dst, s.cands[0]
	}

	// A slow candidate might win: pull the tentative MPLG encoding out of
	// dst and run the exact pricing.
	st.mplg = append(st.mplg[:0], dst[start:]...)
	dst = dst[:start]
	preds, choice := s.price(st, chunk)
	dst = s.encodeCandidate(st, dst, chunk, choice)
	scheme := s.cands[choice]

	// Mis-prediction escape hatch: if the winner came in >25% over its
	// prediction (only possible for the modeled RAZE→RARE candidate — the
	// other predictions are exact), encode the runner-up too and keep the
	// smaller result.
	if encLen := len(dst) - start; encLen > preds[choice]+preds[choice]/4 {
		reencodeTried.Add(1)
		runner, runnerPred := -1, 0
		for i, p := range preds[:s.nc] {
			if i != choice && (runner < 0 || p < runnerPred) {
				runner, runnerPred = i, p
			}
		}
		st.alt = s.encodeCandidate(st, st.alt[:0], chunk, runner)
		if len(st.alt) < encLen {
			reencodeKept.Add(1)
			dst = append(dst[:start], st.alt...)
			scheme = s.cands[runner]
		}
	}
	schemeCounts[scheme].Add(1)
	return dst, scheme
}

// InverseSchemeInto decodes one chunk according to its scheme byte,
// appending to dst with at most maxDecoded bytes of output. Unknown
// schemes, schemes of the other word size, and SchemeRaw (which the
// container layer must handle itself) fail with an ErrScheme-wrapped
// error before touching the payload.
func (s *Selector) InverseSchemeInto(dst, enc []byte, scheme byte, maxDecoded int) ([]byte, error) {
	if scheme == SchemeRaw {
		return nil, schemeErrf("raw chunk routed to the %s codec", s.word)
	}
	if scheme >= NumSchemes {
		return nil, schemeErrf("unknown scheme %d", scheme)
	}
	if !ValidScheme(s.word, scheme) {
		return nil, schemeErrf("scheme %d (%s) in a %s container", scheme, SchemeName(scheme), s.word)
	}
	if k := s.fusedK[scheme]; k != nil {
		return k.InverseInto(dst, enc, maxDecoded)
	}
	return s.full[scheme].InverseInto(dst, enc, maxDecoded)
}

// Forward implements container.Codec: the winning candidate's encoding,
// with the scheme byte dropped. Only useful for size probes — a container
// built through the Codec interface could not be decoded, which is why
// auto mode requires the v2 scheme table (the engine enforces that).
func (s *Selector) Forward(chunk []byte) []byte {
	enc, _ := s.ForwardSchemeInto(nil, chunk)
	return enc
}

// Inverse implements container.Codec; scheme-less decoding is impossible.
func (s *Selector) Inverse(enc []byte) ([]byte, error) {
	return nil, schemeErrf("auto-mode chunks need the container v2 scheme table")
}

// InverseLimit implements container.BudgetCodec; see Inverse.
func (s *Selector) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return nil, schemeErrf("auto-mode chunks need the container v2 scheme table")
}

// Process-wide selection counters, exported through the fpcd expvar
// metrics snapshot. They count the selector's decisions (before the
// container's raw fallback, which the scheme table itself records).
var (
	schemeCounts  [NumSchemes]atomic.Uint64
	reencodeTried atomic.Uint64
	reencodeKept  atomic.Uint64
)

// CounterSnapshot is a point-in-time copy of the selection counters.
type CounterSnapshot struct {
	// PerScheme maps SchemeName(scheme) to the number of chunks the
	// selector chose that scheme for (schemes never chosen are omitted).
	PerScheme map[string]uint64
	// ReencodeTried counts escape-hatch activations (actual size >125% of
	// predicted); ReencodeKept counts those where the runner-up won.
	ReencodeTried uint64
	ReencodeKept  uint64
}

// Counters returns a snapshot of the process-wide selection counters.
func Counters() CounterSnapshot {
	snap := CounterSnapshot{PerScheme: make(map[string]uint64)}
	for i := range schemeCounts {
		if n := schemeCounts[i].Load(); n > 0 {
			snap.PerScheme[SchemeName(byte(i))] = n
		}
	}
	snap.ReencodeTried = reencodeTried.Load()
	snap.ReencodeKept = reencodeKept.Load()
	return snap
}

// ResetCounters zeroes the selection counters (tests only).
func ResetCounters() {
	for i := range schemeCounts {
		schemeCounts[i].Store(0)
	}
	reencodeTried.Store(0)
	reencodeKept.Store(0)
}
