package selector

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fpcompress/internal/sdr"
	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

const testChunk = 16384

// corpus concatenates one sdr sample file per domain, the same shape the
// container engine chunks.
func corpus(double bool) []byte {
	cfg := sdr.Config{ValuesPerFile: 1 << 14}
	files := sdr.SingleFiles(cfg)
	if double {
		files = sdr.DoubleFiles(cfg)
	}
	var out []byte
	seen := map[string]bool{}
	for _, f := range files {
		if !seen[f.Domain] {
			seen[f.Domain] = true
			out = append(out, f.Data...)
		}
	}
	return out
}

func chunks(src []byte) [][]byte {
	var out [][]byte
	for lo := 0; lo < len(src); lo += testChunk {
		out = append(out, src[lo:min(lo+testChunk, len(src))])
	}
	return out
}

// TestPredictionsExact pins the cost model's exactness guarantees: the
// speed and balance candidates are priced exactly for both word sizes, and
// so is the single-precision ratio candidate (BIT→RZE priced without
// running the transpose). Only RAZE→RARE is approximate.
func TestPredictionsExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		double bool
	}{{"sp", false}, {"dp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			word := wordio.W32
			if tc.double {
				word = wordio.W64
			}
			s, full := New(word), pipelines(word)
			for ci, chunk := range chunks(corpus(tc.double)) {
				preds, _ := s.Predict(chunk)
				for i, p := range preds {
					if !tc.double && i == 2 {
						continue // checked below as exact too
					}
					actual := len(full[p.Scheme].ForwardInto(nil, chunk))
					exact := i < 2 || word == wordio.W32
					if exact && p.Predicted != actual {
						t.Fatalf("chunk %d %s: predicted %d, actual %d",
							ci, SchemeName(p.Scheme), p.Predicted, actual)
					}
				}
				if !tc.double {
					p := preds[2]
					if actual := len(full[p.Scheme].ForwardInto(nil, chunk)); p.Predicted != actual {
						t.Fatalf("chunk %d %s: predicted %d, actual %d",
							ci, SchemeName(p.Scheme), p.Predicted, actual)
					}
				}
			}
		})
	}
}

// TestCalibrateRazeRare bounds the one modeled candidate: the RAZE→RARE
// prediction must stay within a generous band of the true encoded size on
// every corpus chunk (the escape hatch handles the residual error).
func TestCalibrateRazeRare(t *testing.T) {
	s := New(wordio.W64)
	ratio := pipelines(wordio.W64)[SchemeRazeRare64]
	for ci, chunk := range chunks(corpus(true)) {
		preds, _ := s.Predict(chunk)
		pred := preds[2].Predicted
		actual := len(ratio.ForwardInto(nil, chunk))
		if pred < actual*3/4 || pred > actual*3/2 {
			t.Errorf("chunk %d: raze+rare predicted %d vs actual %d (outside [0.75, 1.5]x)",
				ci, pred, actual)
		}
	}
}

// TestForwardSchemeRoundtrip checks, for every corpus chunk of both word
// sizes: the scheme byte names a candidate of the word size, the encoding
// is byte-identical to that candidate pipeline's own output (so decode
// through the fixed pipeline reproduces the chunk), and InverseSchemeInto
// restores the original bytes.
func TestForwardSchemeRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		double bool
	}{{"sp", false}, {"dp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			word := wordio.W32
			if tc.double {
				word = wordio.W64
			}
			s, full := New(word), pipelines(word)
			for ci, chunk := range chunks(corpus(tc.double)) {
				enc, scheme := s.ForwardSchemeInto(nil, chunk)
				if !ValidScheme(word, scheme) {
					t.Fatalf("chunk %d: scheme %d invalid for %v", ci, scheme, word)
				}
				if want := full[scheme].ForwardInto(nil, chunk); !bytes.Equal(enc, want) {
					t.Fatalf("chunk %d: scheme %s encoding differs from the pipeline's own output", ci, SchemeName(scheme))
				}
				dec, err := s.InverseSchemeInto(nil, enc, scheme, len(chunk))
				if err != nil || !bytes.Equal(dec, chunk) {
					t.Fatalf("chunk %d: scheme %s roundtrip failed: %v", ci, SchemeName(scheme), err)
				}
			}
		})
	}
}

// TestFusedRoutes pins which transform each scheme runs through: its fused
// kernel wherever one exists, the stage-by-stage pipeline for the balance
// schemes, nothing for the other word size. The byte-identity tests cannot
// see a lost fused route; only the throughput would.
func TestFusedRoutes(t *testing.T) {
	want := map[wordio.WordSize]map[byte]string{
		wordio.W32: {
			SchemeMPLG32:    "*fused.Speed32",
			SchemeBitRZE32:  "*fused.Ratio32",
			SchemeMPLGRZE32: "transforms.Pipeline",
		},
		wordio.W64: {
			SchemeMPLG64:        "*fused.Speed64",
			SchemeRazeRare64:    "*fused.Ratio64",
			SchemeMPLGRZE64:     "transforms.Pipeline",
			SchemeFCMRazeRare64: "*fused.FCMRatio64",
		},
	}
	for _, s := range []*Selector{New(wordio.W32), New(wordio.W64), NewWindowed(wordio.W64)} {
		for scheme, tr := range s.codec {
			w, ok := want[s.word][byte(scheme)]
			if !ok {
				w = "<nil>"
			}
			if got := fmt.Sprintf("%T", tr); got != w {
				t.Errorf("%s selector (windowed %v), scheme %s: runs %s, want %s",
					s.word, s.windowed, SchemeName(byte(scheme)), got, w)
			}
		}
		if transforms.Transform(s.fspeed) != s.codec[s.cands[0]] {
			t.Errorf("%s selector: gate kernel is not the speed scheme's kernel", s.word)
		}
	}
}

// TestSpeedBiasMargin pins the tie-break: the chosen candidate's
// prediction is within the margin of the best prediction, and no strictly
// faster candidate was also within the margin.
func TestSpeedBiasMargin(t *testing.T) {
	for _, double := range []bool{false, true} {
		word := wordio.W32
		if double {
			word = wordio.W64
		}
		s := New(word)
		for ci, chunk := range chunks(corpus(double)) {
			preds, choice := s.Predict(chunk)
			best := preds[0].Predicted
			for _, p := range preds {
				best = min(best, p.Predicted)
			}
			margin := len(chunk) * s.marginPct / 100
			if preds[choice].Predicted > best+margin {
				t.Fatalf("chunk %d: chose %s at %d, best %d exceeds margin %d",
					ci, SchemeName(preds[choice].Scheme), preds[choice].Predicted, best, margin)
			}
			for i := 0; i < choice; i++ {
				if preds[i].Predicted <= best+margin {
					t.Fatalf("chunk %d: faster candidate %s within margin was passed over",
						ci, SchemeName(preds[i].Scheme))
				}
			}
		}
	}
}

// TestInverseSchemeErrors drives every hostile scheme byte through the
// decode router: each must fail with an ErrScheme-wrapped error.
func TestInverseSchemeErrors(t *testing.T) {
	s32, s64 := New(wordio.W32), New(wordio.W64)
	chunk := make([]byte, 4096)
	for i := range chunk {
		chunk[i] = byte(i / 7)
	}
	enc, scheme := s32.ForwardSchemeInto(nil, chunk)
	if !ValidScheme(wordio.W32, scheme) {
		t.Fatal("setup: bad scheme")
	}
	cases := []struct {
		name   string
		s      *Selector
		scheme byte
	}{
		{"raw routed to codec", s32, SchemeRaw},
		{"unknown scheme", s32, NumSchemes},
		{"unknown scheme high", s32, 0xFF},
		{"64-bit scheme in 32-bit selector", s32, SchemeMPLG64},
		{"32-bit scheme in 64-bit selector", s64, SchemeMPLG32},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.s.InverseSchemeInto(nil, enc, c.scheme, len(chunk)); !errors.Is(err, ErrScheme) {
				t.Errorf("got %v, want ErrScheme", err)
			}
		})
	}
	// The scheme-less Codec decode paths cannot route and must refuse.
	if _, err := s32.Inverse(enc); !errors.Is(err, ErrScheme) {
		t.Errorf("Inverse: got %v, want ErrScheme", err)
	}
	if _, err := s32.InverseLimit(enc, len(chunk)); !errors.Is(err, ErrScheme) {
		t.Errorf("InverseLimit: got %v, want ErrScheme", err)
	}
	// The per-chunk decode budget still applies through the router.
	if _, err := s32.InverseSchemeInto(nil, enc, scheme, len(chunk)-1); err == nil {
		t.Error("decode over budget succeeded")
	}
	if !errors.Is(transforms.ErrCorrupt, transforms.ErrCorrupt) {
		t.Fatal("unreachable")
	}
}

// resetCounters zeroes the selection counters.
func resetCounters() {
	for i := range schemeCounts {
		schemeCounts[i].Store(0)
	}
	reencodeTried.Store(0)
	reencodeKept.Store(0)
}

// TestCounters checks the process-wide selection counters: every encoded
// chunk lands in exactly one per-scheme bucket, and the escape-hatch
// counters stay ordered.
func TestCounters(t *testing.T) {
	resetCounters()
	defer resetCounters()
	s := New(wordio.W64)
	cs := chunks(corpus(true))
	for _, chunk := range cs {
		s.ForwardSchemeInto(nil, chunk)
	}
	snap := Counters()
	var total uint64
	for name, n := range snap.PerScheme {
		if name == SchemeName(SchemeRaw) {
			t.Errorf("selector recorded a raw choice: %v", snap.PerScheme)
		}
		total += n
	}
	if total != uint64(len(cs)) {
		t.Errorf("counters total %d, want %d", total, len(cs))
	}
	if snap.ReencodeKept > snap.ReencodeTried {
		t.Errorf("kept %d > tried %d", snap.ReencodeKept, snap.ReencodeTried)
	}
}

// TestRandomChunksRoundtrip fuzzes the selector with adversarially random
// (incompressible) and structured chunks, including sizes that are not
// word-multiples: every chunk must roundtrip bit-exactly through its
// recorded scheme.
func TestRandomChunksRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, double := range []bool{false, true} {
		word := wordio.W32
		if double {
			word = wordio.W64
		}
		s := New(word)
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(testChunk + 1)
			chunk := make([]byte, n)
			switch trial % 3 {
			case 0:
				rng.Read(chunk)
			case 1: // smooth: compressible
				for i := range chunk {
					chunk[i] = byte(i / 16)
				}
			case 2: // sparse
				for i := 0; i < n; i += 37 {
					chunk[i] = byte(i)
				}
			}
			enc, scheme := s.ForwardSchemeInto(nil, chunk)
			if !ValidScheme(word, scheme) {
				t.Fatalf("trial %d: invalid scheme %d", trial, scheme)
			}
			dec, err := s.InverseSchemeInto(nil, enc, scheme, len(chunk))
			if err != nil || !bytes.Equal(dec, chunk) {
				t.Fatalf("trial %d (n=%d, scheme %s): roundtrip failed: %v", trial, n, SchemeName(scheme), err)
			}
		}
	}
}
