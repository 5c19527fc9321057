// Package transforms implements the seven data transformations that make up
// the SPspeed, SPratio, DPspeed, and DPratio compression algorithms from the
// ASPLOS'25 paper "Efficient Lossless Compression of Scientific
// Floating-Point Data on CPUs and GPUs":
//
//   - DIFFMS: difference coding modulo 2^w followed by a two's-complement to
//     magnitude-sign conversion (diffms.go)
//   - MPLG: per-subchunk common leading-zero-bit elimination, enhanced with a
//     fallback magnitude-sign pass (mplg.go)
//   - BIT: bit transposition / bit-plane shuffle (bit.go)
//   - RZE: repeated zero elimination at byte granularity with a recursively
//     compressed bitmap (rze.go)
//   - FCM: finite-context-method duplicate-value detection by exact
//     context hash (fcm.go)
//   - RAZE: repeated adaptive zero elimination of the top k bits (raze.go)
//   - RARE: repeated adaptive repetition elimination of the top k bits
//     (rare.go)
//
// Every transform is exactly invertible. Transforms whose output length
// differs from their input length are self-describing: the encoded form
// starts with a uvarint giving the decoded length.
//
// # Buffer ownership
//
// The hot-path entry points are the append-into methods ForwardInto and
// InverseInto: they append their output to a caller-supplied dst (which may
// be nil) and return the extended slice, exactly like the append builtin.
// The caller owns dst before and after the call; the transform owns it
// during the call. dst must not overlap src/enc. Like append, the returned
// slice may or may not share dst's backing array (it reallocates only when
// capacity runs out), so callers must use the return value and must not
// retain other aliases of dst across the call. Internal per-call
// temporaries come from package-level sync.Pools, so a warmed steady state
// performs no heap allocation beyond what dst growth requires. Forward,
// Inverse, and InverseLimit are thin wrappers that pass a nil dst.
package transforms

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// BitFinish spills a bit-packing accumulator's remaining pending bits,
// zero-padded to a byte boundary exactly like bitio.Writer.Align, and
// returns the new write cursor.
func BitFinish(buf []byte, bp int, acc uint64, nacc uint) int {
	for nacc >= 8 {
		nacc -= 8
		buf[bp] = byte(acc >> nacc)
		bp++
	}
	if nacc > 0 {
		buf[bp] = byte(acc << (8 - nacc))
		bp++
	}
	return bp
}

// ErrCorrupt is returned when an encoded transform payload cannot be
// decoded. It always wraps a more specific description.
var ErrCorrupt = errors.New("transforms: corrupt payload")

// MaxDecoded caps the decoded size a self-describing per-chunk transform
// will allocate (64 MiB — far above any supported chunk size), so corrupt
// length prefixes fail cleanly instead of exhausting memory. Callers that
// know the expected decoded size (the container engine knows every chunk's)
// should pass a tighter bound via InverseLimit.
const MaxDecoded = 1 << 26

// NoLimit is the maxDecoded value meaning "no caller-supplied budget";
// per-chunk transforms still apply the intrinsic MaxDecoded cap.
const NoLimit = -1

// checkDecodedLen validates a decoded-length prefix against the intrinsic
// MaxDecoded cap and, when maxDecoded >= 0, the caller's tighter budget.
// Every decoder must call it before allocating anything sized by declen.
func checkDecodedLen(name string, declen uint64, maxDecoded int) error {
	cap := uint64(MaxDecoded)
	if maxDecoded >= 0 && uint64(maxDecoded) < cap {
		cap = uint64(maxDecoded)
	}
	if declen > cap {
		return Corruptf("%s: decoded length %d exceeds budget %d", name, declen, cap)
	}
	return nil
}

// StageBudget is the decode budget of a pipeline's interior stages for a
// final budget of maxDecoded: 2*maxDecoded+64, saturating to NoLimit (see
// Pipeline.InverseInto for why interior stages need the headroom).
func StageBudget(maxDecoded int) int {
	if maxDecoded < 0 || maxDecoded >= (math.MaxInt-64)/2 {
		return NoLimit
	}
	return 2*maxDecoded + 64
}

// Corruptf builds an ErrCorrupt-wrapped error, so every decode failure —
// in this package or in the fused kernels — satisfies errors.Is(err,
// ErrCorrupt).
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Grow extends b by n bytes (contents of the new tail are unspecified) and
// returns the extended slice, reallocating only when capacity is short —
// by append's amortized policy (slices.Grow), so a nil b gets exactly n.
func Grow(b []byte, n int) []byte {
	return slices.Grow(b, n)[:len(b)+n]
}

// bufPool holds reusable byte buffers for transform temporaries and
// pipeline ping-ponging. Buffers are stored via pointer so Put does not
// allocate, and re-stored after use so grown capacity is retained; callers
// size them with wordio.Resize or append into (*p)[:0].
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf takes a scratch byte buffer from the shared pool.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a buffer taken with GetBuf.
func PutBuf(p *[]byte) { bufPool.Put(p) }

// intPool holds reusable []int scratch (the adaptive transforms' per-word
// lead counts).
var intPool = sync.Pool{New: func() any { return new([]int) }}

// Transform is one reversible stage of a compression pipeline. Forward may
// return a slice longer or shorter than src; Inverse must reproduce the
// exact Forward input.
//
// Every Inverse/InverseLimit/InverseInto implementation treats enc as
// hostile: arbitrary bytes must produce an error (never a panic), and no
// allocation may exceed the declared-and-validated decoded size.
type Transform interface {
	// Name identifies the transform in pipeline listings (e.g. "DIFFMS32").
	Name() string
	// Forward encodes one chunk. Equivalent to ForwardInto(nil, src).
	Forward(src []byte) []byte
	// ForwardInto appends the encoding of src to dst and returns the
	// extended slice (append semantics: the result may share dst's backing
	// array or be a reallocation). dst may be nil; it must not overlap src.
	// The output never aliases src.
	ForwardInto(dst, src []byte) []byte
	// Inverse decodes one chunk encoded by Forward.
	Inverse(enc []byte) ([]byte, error)
	// InverseLimit decodes like Inverse but additionally rejects — before
	// allocating — any encoding whose declared decoded size exceeds
	// maxDecoded bytes. maxDecoded == NoLimit means no caller bound;
	// intrinsic caps (MaxDecoded for per-chunk transforms, the encoded
	// length for FCM) still apply.
	InverseLimit(enc []byte, maxDecoded int) ([]byte, error)
	// InverseInto appends the decoded bytes to dst under the same budget
	// rules as InverseLimit and returns the extended slice. dst may be nil;
	// it must not overlap enc. On error the returned slice is nil and any
	// reallocated copy of dst is discarded, so callers pooling dst should
	// treat a failed call as having consumed the buffer's contents (the
	// capacity itself is only lost if the decode outgrew it before
	// failing).
	InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error)
}

// Pipeline chains transforms: Forward applies them left to right, Inverse
// right to left.
type Pipeline []Transform

// Forward runs every stage in order.
func (p Pipeline) Forward(src []byte) []byte {
	return p.ForwardInto(nil, src)
}

// ForwardInto appends the fully encoded form of src to dst and returns the
// extended slice. Intermediate stage outputs ping-pong between two pooled
// scratch buffers, so a warmed steady state allocates nothing beyond dst
// growth. The same ownership rules as Transform.ForwardInto apply.
func (p Pipeline) ForwardInto(dst, src []byte) []byte {
	n := len(p)
	switch n {
	case 0:
		return append(dst, src...)
	case 1:
		return p[0].ForwardInto(dst, src)
	}
	a, b := GetBuf(), GetBuf()
	defer PutBuf(a)
	defer PutBuf(b)
	cur := src
	for i := 0; i < n-1; i++ {
		s := a
		if i&1 == 1 {
			s = b
		}
		*s = p[i].ForwardInto((*s)[:0], cur)
		cur = *s
	}
	return p[n-1].ForwardInto(dst, cur)
}

// Inverse runs every stage's inverse in reverse order.
func (p Pipeline) Inverse(enc []byte) ([]byte, error) {
	return p.InverseInto(nil, enc, NoLimit)
}

// InverseLimit runs every stage's inverse in reverse order, bounding each
// stage's decoded allocation by the budget (see InverseInto).
func (p Pipeline) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return p.InverseInto(nil, enc, maxDecoded)
}

// InverseInto appends the fully decoded form of enc to dst, bounding each
// stage's decoded allocation by the budget. Intermediate stage outputs can
// exceed the final decoded size by a small factor (an expanding RAZE/RARE
// stage emits up to ~1.16x its input when the bitmap model underestimates),
// so each stage gets 2*maxDecoded+64 of headroom — still proportional to
// the true decoded size, which is what bounds memory under hostile input.
// Intermediate outputs live in pooled scratch; only the final stage writes
// into dst. The fully decoded length is checked against maxDecoded exactly,
// so the budget holds even for stages (like the bit transposes) whose output
// size is fixed by their input and which therefore ignore the budget.
func (p Pipeline) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	out, err := p.inverseInto(dst, enc, maxDecoded)
	if err != nil {
		return nil, err
	}
	if maxDecoded >= 0 && len(out)-len(dst) > maxDecoded {
		return nil, Corruptf("pipeline: decoded length %d exceeds budget %d", len(out)-len(dst), maxDecoded)
	}
	return out, nil
}

func (p Pipeline) inverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	stageBudget := StageBudget(maxDecoded)
	n := len(p)
	switch n {
	case 0:
		return append(dst, enc...), nil
	case 1:
		return p[0].InverseInto(dst, enc, maxDecoded)
	}
	a, b := GetBuf(), GetBuf()
	defer PutBuf(a)
	defer PutBuf(b)
	cur := enc
	for i := n - 1; i > 0; i-- {
		s := a
		if i&1 == 1 {
			s = b
		}
		out, err := p[i].InverseInto((*s)[:0], cur, stageBudget)
		if err != nil {
			return nil, fmt.Errorf("stage %s: %w", p[i].Name(), err)
		}
		*s = out
		cur = out
	}
	out, err := p[0].InverseInto(dst, cur, stageBudget)
	if err != nil {
		return nil, fmt.Errorf("stage %s: %w", p[0].Name(), err)
	}
	return out, nil
}

// Names returns the stage names, e.g. ["DIFFMS32","BIT32","RZE"].
func (p Pipeline) Names() []string {
	names := make([]string, len(p))
	for i, t := range p {
		names[i] = t.Name()
	}
	return names
}
