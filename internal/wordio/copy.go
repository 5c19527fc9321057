package wordio

import "sync"

// Copy-in/copy-out word access.
//
// Every transform kernel runs on word slices, and In32/In64 and
// Out32/Out64 give it the words of a byte buffer whatever the buffer's
// alignment or the build: the View32/View64 alias when one is granted,
// and otherwise pooled scratch that In fills from the bytes and Out's
// Done stores back into them, little-endian either way. So each transform
// has one loop, and it sees the same word values on every path; only
// buffers that cannot be aliased (misaligned sub-slices, purego and
// big-endian builds) pay for the copy.
//
// The contract:
//
//   - In32/In64 words are for reading only: on the alias path they are
//     the caller's bytes. Out32/Out64 words start unspecified, and a
//     kernel must write (or clear) every one it wants stored.
//   - The words cover the buffer's complete words, len(b)/w of them;
//     trailing bytes are the caller's, as with a view.
//   - Done must be called exactly once, after the last use of W and before
//     the bytes behind an Out are read: it stores scratch back into the
//     Out buffer (the alias path has nothing to store) and returns the
//     scratch to its pool, so a warm caller allocates nothing.

// Resize returns *p resized to exactly n elements (contents unspecified),
// storing a grown backing array back through p so that a pool holding p
// keeps the capacity. Every pooled scratch buffer in the codec is sized
// through it.
func Resize[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	return (*p)[:n]
}

var (
	pool32 = sync.Pool{New: func() any { return new([]uint32) }}
	pool64 = sync.Pool{New: func() any { return new([]uint64) }}
)

// Span32 is a kernel's access to 32-bit words: W, valid until Done.
type Span32 struct {
	W   []uint32
	out []byte    // Out32 on scratch: where Done stores W
	p   *[]uint32 // the pooled scratch behind W; nil when W aliases bytes
}

// Scratch32 returns n pooled words (contents unspecified) backed by no
// byte buffer; Done returns them to the pool.
func Scratch32(n int) Span32 {
	p := pool32.Get().(*[]uint32)
	return Span32{W: Resize(p, n), p: p}
}

// In32 returns b's complete little-endian 32-bit words for reading.
func In32(b []byte) Span32 {
	if w, ok := View32(b); ok {
		return Span32{W: w}
	}
	s := Scratch32(len(b) / 4)
	load32(s.W, b)
	return s
}

// Out32 returns len(b)/4 words for a kernel to write; Done stores them
// into b little-endian.
func Out32(b []byte) Span32 {
	if w, ok := View32(b); ok {
		return Span32{W: w}
	}
	s := Scratch32(len(b) / 4)
	s.out = b
	return s
}

// Done stores an Out32 scratch back into its bytes and releases the
// scratch (see the contract above).
func (w Span32) Done() {
	if w.p == nil {
		return
	}
	if w.out != nil {
		store32(w.out, w.W)
	}
	pool32.Put(w.p)
}

// Span64 is the 64-bit Span32.
type Span64 struct {
	W   []uint64
	out []byte
	p   *[]uint64
}

// Scratch64 returns n pooled words (contents unspecified) backed by no
// byte buffer; Done returns them to the pool.
func Scratch64(n int) Span64 {
	p := pool64.Get().(*[]uint64)
	return Span64{W: Resize(p, n), p: p}
}

// In64 returns b's complete little-endian 64-bit words for reading.
func In64(b []byte) Span64 {
	if w, ok := View64(b); ok {
		return Span64{W: w}
	}
	s := Scratch64(len(b) / 8)
	load64(s.W, b)
	return s
}

// Out64 returns len(b)/8 words for a kernel to write; Done stores them
// into b little-endian.
func Out64(b []byte) Span64 {
	if w, ok := View64(b); ok {
		return Span64{W: w}
	}
	s := Scratch64(len(b) / 8)
	s.out = b
	return s
}

// Done stores an Out64 scratch back into its bytes and releases the
// scratch (see the contract above).
func (w Span64) Done() {
	if w.p == nil {
		return
	}
	if w.out != nil {
		store64(w.out, w.W)
	}
	pool64.Put(w.p)
}
