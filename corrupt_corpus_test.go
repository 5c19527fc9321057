package fpcompress

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fpcompress/internal/container"
)

// corpusFiles returns the checked-in corrupt-container seeds.
func corpusFiles(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "corrupt", "*.bin"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corrupt corpus missing (%d files): %v", len(paths), err)
	}
	files := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = data
	}
	return files
}

// selfHealingSeeds are corpus files whose damage the strict decoder
// repairs transparently — a v3 container with one corrupt chunk per parity
// group, or with damage confined to a parity block the clean data never
// consults. For these, Decompress must SUCCEED; everything else in the
// corpus must fail.
var selfHealingSeeds = map[string]bool{
	"v3-parity-repairable.bin":    true,
	"v3-parity-chunk-corrupt.bin": true,
}

// TestCorruptCorpus replays every checked-in hostile container through the
// public decode paths: each must fail with an error — no panic, no
// over-allocation (the default 64 MiB budget applies) — except the
// self-healing seeds, which must decode despite their damage. These files
// are regression seeds for specific hardening fixes; see
// testdata/corrupt/README.md.
func TestCorruptCorpus(t *testing.T) {
	for name, data := range corpusFiles(t) {
		t.Run(name, func(t *testing.T) {
			if selfHealingSeeds[name] {
				if _, err := Decompress(data, nil); err != nil {
					t.Fatalf("strict decode failed to self-heal: %v", err)
				}
				return
			}
			if dec, err := Decompress(data, nil); err == nil {
				t.Fatalf("Decompress accepted corrupt container (%d bytes out)", len(dec))
			}
			ra, err := OpenRandomAccess(data, nil)
			if err != nil {
				return // rejected at parse time: fine
			}
			// Parse-clean but damaged: a full scan must surface an error
			// somewhere, not panic (the damage may sit past the first chunk).
			// The declared length is hostile, so cap the scan allocation; the
			// real seeds are all far smaller than the cap.
			buf := make([]byte, min(ra.Len(), 1<<20))
			if _, err := ra.ReadAt(buf, 0); err == nil && ra.Len() > 0 {
				t.Error("full random-access scan succeeded on corrupt container")
			}
		})
	}
}

// TestCorruptCorpusBudgets pins the two allocation-bomb seeds to their
// budget errors specifically, so a regression that "fixes" them by
// allocating first cannot slip through as a generic failure.
func TestCorruptCorpusBudgets(t *testing.T) {
	files := corpusFiles(t)
	if data, ok := files["huge-original-len.bin"]; ok {
		if _, err := Decompress(data, nil); err == nil || !errors.Is(err, ErrDecodeBudget) {
			t.Errorf("huge-original-len: got %v, want ErrDecodeBudget", err)
		}
		// A tighter explicit budget must also refuse it before allocating.
		if _, err := Decompress(data, &Options{MaxDecodedSize: 16 << 10}); !errors.Is(err, ErrDecodeBudget) {
			t.Errorf("huge-original-len under 16 KiB budget: got %v, want ErrDecodeBudget", err)
		}
	} else {
		t.Error("huge-original-len.bin missing from corpus")
	}
	if data, ok := files["size-table-overflow.bin"]; ok {
		if _, err := Decompress(data, nil); err == nil {
			t.Error("size-table-overflow accepted")
		}
	} else {
		t.Error("size-table-overflow.bin missing from corpus")
	}
}

// TestCorruptCorpusV3 pins each self-healing (v3) seed to its intended
// typed outcome, so a regression that turns localized damage into a
// generic failure (or vice versa) cannot slip through.
func TestCorruptCorpusV3(t *testing.T) {
	files := corpusFiles(t)
	get := func(name string) []byte {
		t.Helper()
		data, ok := files[name]
		if !ok {
			t.Fatalf("%s missing from corpus (run go run testdata/corrupt/gen.go)", name)
		}
		return data
	}

	t.Run("chunk-crc-flip", func(t *testing.T) {
		data := get("v3-chunk-crc-flip.bin")
		if _, err := Decompress(data, nil); !errors.Is(err, ErrChunkCorrupt) {
			t.Errorf("strict decode: got %v, want ErrChunkCorrupt", err)
		}
		dec, rep, err := DecompressPartial(data, nil)
		if err != nil {
			t.Fatalf("partial decode: %v", err)
		}
		c := rep.Counts()
		if c.Quarantined != 1 || c.OK != len(rep.States)-1 {
			t.Errorf("report = %s, want exactly 1 quarantined", rep.Summary())
		}
		if len(dec) != rep.OriginalLen {
			t.Errorf("partial decode returned %d bytes, report declares %d", len(dec), rep.OriginalLen)
		}
		for _, r := range rep.QuarantinedRanges() {
			for _, b := range dec[r[0]:r[1]] {
				if b != 0 {
					t.Fatalf("quarantined range [%d:%d) not zero-filled", r[0], r[1])
				}
			}
		}
	})

	t.Run("parity-repairable", func(t *testing.T) {
		data := get("v3-parity-repairable.bin")
		_, rep, err := DecompressPartial(data, nil)
		if err != nil {
			t.Fatalf("partial decode: %v", err)
		}
		if c := rep.Counts(); c.Repaired != 1 || !rep.AllOK() {
			t.Errorf("report = %s, want exactly 1 repaired and all intact", rep.Summary())
		}
	})

	t.Run("torn-tail", func(t *testing.T) {
		data := get("v3-torn-tail.bin")
		if _, err := Decompress(data, nil); err == nil {
			t.Error("strict decode accepted a torn container")
		}
		dec, rep, err := DecompressPartial(data, nil)
		if err != nil {
			t.Fatalf("partial decode: %v", err)
		}
		if c := rep.Counts(); c.Quarantined == 0 {
			t.Errorf("report = %s, want the torn range quarantined", rep.Summary())
		}
		if len(dec) != rep.OriginalLen {
			t.Errorf("partial decode returned %d bytes, report declares %d", len(dec), rep.OriginalLen)
		}
	})

	t.Run("meta-crc-flip", func(t *testing.T) {
		data := get("v3-meta-crc-flip.bin")
		if _, _, err := DecompressPartial(data, nil); !errors.Is(err, ErrHeaderCorrupt) {
			t.Errorf("partial decode: got %v, want ErrHeaderCorrupt (unverifiable metadata is fatal)", err)
		}
	})

	t.Run("scheme-bitflip", func(t *testing.T) {
		// v2's scheme table is unprotected (caught only at routing); v3's is
		// under the metadata CRC, so the flip is rejected up front.
		data := get("v3-scheme-bitflip.bin")
		if _, _, err := DecompressPartial(data, nil); !errors.Is(err, ErrHeaderCorrupt) {
			t.Errorf("partial decode: got %v, want ErrHeaderCorrupt", err)
		}
	})
}

// TestCorruptCorpusV4 pins the windowed (v4) seeds to parse-time
// rejection: the window flag is the version negotiation, so flag damage
// must fail before any codec routing — a v4 container must never fall
// back to whole-input FCM semantics.
func TestCorruptCorpusV4(t *testing.T) {
	files := corpusFiles(t)
	for _, name := range []string{
		"v4-no-window-flag.bin",
		"v4-flag-truncated.bin",
		"v4-scheme-flag-conflict.bin",
		"v4-parity-no-integrity.bin",
	} {
		t.Run(name, func(t *testing.T) {
			data, ok := files[name]
			if !ok {
				t.Fatalf("%s missing from corpus (run go run testdata/corrupt/gen.go)", name)
			}
			if _, err := Decompress(data, nil); err == nil {
				t.Error("strict decode accepted a damaged v4 container")
			}
			if _, err := OpenRandomAccess(data, nil); err == nil {
				t.Error("random access opened a damaged v4 container")
			}
			// The flag-contradiction seeds must also refuse partial decode:
			// with the window negotiation unreadable there is no safe codec
			// to degrade to (unlike payload damage, which quarantines).
			if name != "v4-scheme-flag-conflict.bin" {
				if _, _, err := DecompressPartial(data, nil); err == nil {
					t.Error("partial decode accepted a v4 container with a broken window flag")
				}
			}
		})
	}
}

// FuzzDecompressPartial drives the degraded decoder with mutated
// containers: it must never panic, must respect the decode budget, and on
// success its ChunkReport must be consistent with the returned bytes —
// declared length honored, quarantined ranges zero-filled, and agreement
// with the strict decoder whenever either one vouches for the data. One
// and three workers must give the same bytes, errors and reports.
func FuzzDecompressPartial(f *testing.F) {
	for _, data := range corpusFiles(f) {
		f.Add(data)
	}
	vals := make([]float32, 5000)
	for i := range vals {
		vals[i] = float32(i%89) * 0.25
	}
	blob, err := CompressFloat32s(SPspeed, vals, &Options{ChunkSize: 4096, Parity: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	// A valid windowed (v4) container with integrity tables, so mutations
	// explore the window-flag negotiation and the v4 degraded path.
	wvals := make([]float64, 3000)
	for i := range wvals {
		wvals[i] = float64(i%83) * 0.125
	}
	wblob, err := CompressFloat64s(DPratio, wvals, &Options{ChunkSize: 4096, WindowedFCM: true, Integrity: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wblob)
	// An empty container whose whole-input CRC is damaged: no chunk can
	// carry the mismatch, so both decoders must refuse it.
	empty, err := Compress(SPspeed, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	empty[6] ^= 1
	f.Add(empty)
	opts := &Options{MaxDecodedSize: 1 << 20, Parallelism: 1}
	opts3 := &Options{MaxDecodedSize: 1 << 20, Parallelism: 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, rep, err := DecompressPartial(data, opts)
		dec3, rep3, err3 := DecompressPartial(data, opts3)
		if errText(err) != errText(err3) || !bytes.Equal(dec, dec3) || !sameStates(rep, rep3) {
			t.Fatalf("partial decode differs between 1 and 3 workers: %v / %v", err, err3)
		}
		strict, serr := Decompress(data, opts)
		strict3, serr3 := Decompress(data, opts3)
		if errText(serr) != errText(serr3) || !bytes.Equal(strict, strict3) {
			t.Fatalf("strict decode differs between 1 and 3 workers: %v / %v", serr, serr3)
		}
		if err != nil {
			return // refused outright; the only contract is no panic
		}
		if rep == nil {
			t.Fatal("successful partial decode returned a nil report")
		}
		if len(dec) > 1<<20 {
			t.Fatalf("decoded %d bytes past the 1 MiB budget", len(dec))
		}
		if len(dec) != rep.OriginalLen {
			t.Fatalf("returned %d bytes but the report declares %d", len(dec), rep.OriginalLen)
		}
		for _, r := range rep.QuarantinedRanges() {
			for _, b := range dec[r[0]:r[1]] {
				if b != 0 {
					t.Fatalf("quarantined range [%d:%d) not zero-filled", r[0], r[1])
				}
			}
		}
		if serr == nil {
			if !bytes.Equal(dec, strict) {
				t.Fatal("partial and strict decode disagree on an intact container")
			}
			if !rep.AllOK() {
				t.Fatalf("strict decode succeeded but the report claims damage: %s", rep.Summary())
			}
		}
		// The converse needs the strict parse: a tail torn only in the
		// parity region leaves every chunk intact yet fails it.
		if _, perr := container.Parse(data); perr == nil && rep.AllOK() {
			if serr != nil {
				t.Fatalf("report %s vouches for every chunk but strict decode fails: %v", rep.Summary(), serr)
			}
			if !bytes.Equal(dec, strict) {
				t.Fatal("partial and strict decode disagree on an intact container")
			}
		}
	})
}

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameStates reports whether two reports (either may be nil) hold the same
// per-chunk states.
func sameStates(a, b *ChunkReport) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.States, b.States)
}

// FuzzContainerDecompress mutates the corrupt corpus (and a valid
// container) through the whole public decode surface under a 1 MiB budget:
// Decompress, random access, and per-value reads must never panic.
func FuzzContainerDecompress(f *testing.F) {
	for _, data := range corpusFiles(f) {
		f.Add(data)
	}
	vals := make([]float32, 5000)
	for i := range vals {
		vals[i] = float32(i%97) * 0.5
	}
	blob, err := Compress(SPspeed, Float32Bytes(vals), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	// A valid windowed (v4) Auto64 container: its chunks are independent,
	// so mutations drive the window flag, the scheme table, and random
	// access over the fcm+raze+rare64 route together.
	wvals := make([]float64, 3000)
	for i := range wvals {
		wvals[i] = float64(i%83) * 0.125
	}
	wblob, err := CompressFloat64s(Auto64, wvals, &Options{ChunkSize: 4096, WindowedFCM: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wblob)
	opts := &Options{MaxDecodedSize: 1 << 20}
	f.Fuzz(func(t *testing.T, data []byte) {
		if dec, err := Decompress(data, opts); err == nil && len(dec) > 1<<20 {
			t.Fatalf("decoded %d bytes past the 1 MiB budget", len(dec))
		}
		ra, err := OpenRandomAccess(data, opts)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		ra.ReadAt(buf, 0)
		ra.ReadAt(buf, int64(ra.Len()/2))
		ra.Float32At(0, 4)
		ra.Float64At(1, 2)
	})
}
