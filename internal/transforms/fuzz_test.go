package transforms

import (
	"bytes"
	"testing"

	"fpcompress/internal/bitio"
	"fpcompress/internal/wordio"
)

// fuzzBudget bounds every fuzzed decode; with it in place a harness run
// cannot allocate more than a few MiB per call no matter what the fuzzer
// synthesizes, so an over-allocation bug shows up as an OOM-free failure.
const fuzzBudget = 1 << 20

// fuzzInverse drives one or more transforms (e.g. both word sizes) over
// arbitrary bytes: decoding must never panic, never report success with
// more than the budgeted bytes, decode an input the budget accepts to the
// same bytes under NoLimit, and genuine encodings must keep round-tripping
// (the fuzzer mutates from those seeds).
func fuzzInverse(f *testing.F, trs ...Transform) { fuzzInverseWith(f, nil, trs...) }

// fuzzInverseWith is fuzzInverse plus an optional per-input check run
// before the shared ones.
func fuzzInverseWith(f *testing.F, check func(t *testing.T, enc []byte), trs ...Transform) {
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add(bitio.AppendUvarint(nil, 1<<40))
	for _, tr := range trs {
		f.Add(tr.ForwardInto(nil, smoothFloats32(300, 7)))
		f.Add(tr.ForwardInto(nil, smoothFloats64(150, 8)))
		f.Add(tr.ForwardInto(nil, make([]byte, 333)))
		f.Add(tr.ForwardInto(nil, []byte{1}))
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		if check != nil {
			check(t, enc)
		}
		for _, tr := range trs {
			dec, err := tr.InverseInto(nil, enc, fuzzBudget)
			if err != nil {
				continue
			}
			if len(dec) > fuzzBudget {
				t.Fatalf("%s: decoded %d bytes past budget %d", tr.Name(), len(dec), fuzzBudget)
			}
			// Without a caller budget (only the intrinsic caps apply) the
			// same input must decode to the same bytes. Running it only on
			// inputs the budget accepted keeps its allocation bounded.
			if un, err := tr.InverseInto(nil, enc, NoLimit); err != nil || !bytes.Equal(un, dec) {
				t.Fatalf("%s: NoLimit decode diverged from the budgeted one: %v", tr.Name(), err)
			}
			// Decoding onto a non-empty dst must agree exactly with a nil
			// dst, preserve dst's existing bytes, and tolerate a dirty
			// reused buffer (decoders may not assume zeroed spare capacity).
			dirty := bytes.Repeat([]byte{0xEE}, 16+len(dec))[:16]
			got, err := tr.InverseInto(dirty, enc, fuzzBudget)
			if err != nil {
				t.Fatalf("%s: InverseInto onto a dirty dst failed where a nil dst succeeded: %v", tr.Name(), err)
			}
			if len(got) != 16+len(dec) || !bytes.Equal(got[16:], dec) {
				t.Fatalf("%s: InverseInto onto a dirty dst diverged from a nil dst", tr.Name())
			}
			for _, b := range got[:16] {
				if b != 0xEE {
					t.Fatalf("%s: InverseInto clobbered dst's existing bytes", tr.Name())
				}
			}
			// Accepted input must be re-encodable to something that decodes
			// back to the same bytes (encode∘decode is idempotent even when
			// enc itself was not canonical).
			fwd := tr.ForwardInto(got[:16], dec)
			if !bytes.Equal(fwd[16:], tr.ForwardInto(nil, dec)) {
				t.Fatalf("%s: ForwardInto onto a non-empty dst diverged from a nil dst", tr.Name())
			}
			re, err := tr.InverseInto(nil, fwd[16:], NoLimit)
			if err != nil || !bytes.Equal(re, dec) {
				t.Fatalf("%s: re-roundtrip diverged: %v", tr.Name(), err)
			}
		}
	})
}

func FuzzDiffMSInverse(f *testing.F) {
	fuzzInverse(f, DiffMS{Word: wordio.W32}, DiffMS{Word: wordio.W64})
}

func FuzzBitInverse(f *testing.F) {
	fuzzInverse(f, Bit{Word: wordio.W32}, Bit{Word: wordio.W64})
}

func FuzzMPLGInverse(f *testing.F) {
	fuzzInverse(f, MPLG{Word: wordio.W32}, MPLG{Word: wordio.W64}, MPLG{Word: wordio.W64, Subchunk: 7})
}

func FuzzRZEInverse(f *testing.F) {
	fuzzInverse(f, RZE{}, RZE{Granularity: 4})
}

func FuzzFCMInverse(f *testing.F) {
	fuzzInverse(f, FCM{})
}

func FuzzRAZEInverse(f *testing.F) {
	fuzzAdaptiveInverse(f, RAZE{}, false)
}

func FuzzRAREInverse(f *testing.F) {
	fuzzAdaptiveInverse(f, RARE{}, true)
}

// fuzzAdaptiveInverse fuzzes RAZE or RARE from the hand-built stream seeds
// (every split k, partial bitmap bytes with pad bits set, 0-7 byte tails),
// and holds the decoder to the word-at-a-time reference: every input must
// fail with the same error or decode to the same bytes.
func fuzzAdaptiveInverse(f *testing.F, tr Transform, repeat bool) {
	for _, s := range adaptiveSeeds() {
		f.Add(s)
	}
	fuzzInverseWith(f, func(t *testing.T, enc []byte) {
		got, err := tr.InverseInto(nil, enc, fuzzBudget)
		want, werr := refAdaptiveInverse(enc, repeat, fuzzBudget)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%s: error %v, reference error %v", tr.Name(), err, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: decode differs from the reference decoder", tr.Name())
		}
	}, tr)
}

// FuzzPipelineInverse drives the full DPratio chunk pipeline — the deepest
// stage stack — over arbitrary bytes with a budget, covering the stage
// headroom logic in Pipeline.InverseInto; an accepted input must decode to
// the same bytes under NoLimit.
func FuzzPipelineInverse(f *testing.F) {
	p := Pipeline{DiffMS{Word: wordio.W64}, RAZE{}, RARE{}}
	f.Add([]byte{})
	f.Add(p.ForwardInto(nil, smoothFloats64(200, 5)))
	f.Add(p.ForwardInto(nil, make([]byte, 100)))
	f.Fuzz(func(t *testing.T, enc []byte) {
		dec, err := p.InverseInto(nil, enc, fuzzBudget)
		if err != nil {
			return
		}
		// Stage headroom is 2*budget+64, so even a non-canonical accepted
		// input must stay within that envelope.
		if len(dec) > 2*fuzzBudget+64 {
			t.Fatalf("pipeline decoded %d bytes past budget envelope", len(dec))
		}
		if un, err := p.InverseInto(nil, enc, NoLimit); err != nil || !bytes.Equal(un, dec) {
			t.Fatalf("pipeline: NoLimit decode diverged from the budgeted one: %v", err)
		}
	})
}
