package wordio

// Word-slice views.
//
// The transform kernels in internal/transforms spend almost all of their
// time reading and writing little-endian words of a []byte chunk. View32
// and View64 alias such a buffer as a []uint32/[]uint64 sharing the same
// backing array — no copy, no per-word decode — when the platform allows
// direct reinterpretation. The contract:
//
//   - A view is only returned on little-endian targets (and never under
//     the purego build tag), and only when the buffer's base address is
//     aligned to the word size. Otherwise ok is false. Kernels do not
//     branch on ok themselves: they take their words from In32/Out32 and
//     In64/Out64 (copy.go), which fall back to copy-in/copy-out scratch.
//   - The view covers the buffer's complete words: len(view) == len(b)/w.
//     Trailing bytes that do not fill a word are the caller's to handle.
//   - The view aliases b: writes through the view are writes to b, and b
//     must outlive the view. Callers must not grow b (append) while a
//     view of it is live.
//
// Because a view changes only how bytes are addressed, never their
// values, a kernel emits the same bytes on the alias and the copy path;
// internal/transforms pins that with differential tests over misaligned
// and odd-length buffers.

// View32 returns b's complete 32-bit words aliased as a []uint32, plus
// true, when direct reinterpretation is possible (see the package notes
// above). A buffer with no complete word yields an empty view and true.
func View32(b []byte) ([]uint32, bool) { return view32(b) }

// View64 returns b's complete 64-bit words aliased as a []uint64, plus
// true, when direct reinterpretation is possible (see the package notes
// above). A buffer with no complete word yields an empty view and true.
func View64(b []byte) ([]uint64, bool) { return view64(b) }
