package transforms

import (
	"errors"
	"testing"

	"fpcompress/internal/bitio"
	"fpcompress/internal/wordio"
)

// TestCorruptInputs feeds each decoder hand-crafted hostile encodings that
// must be rejected with ErrCorrupt — never a panic and never an allocation
// sized by the attacker's declared length.
func TestCorruptInputs(t *testing.T) {
	hugeLen := bitio.AppendUvarint(nil, 1<<40) // declared 1 TiB decode
	cases := []struct {
		name string
		tr   Transform
		enc  []byte
	}{
		{"MPLG32 huge declared length", MPLG{Word: wordio.W32}, append(hugeLen[:len(hugeLen):len(hugeLen)], 1, 2, 3)},
		{"MPLG64 huge declared length", MPLG{Word: wordio.W64}, append(hugeLen[:len(hugeLen):len(hugeLen)], 1, 2, 3)},
		{"RZE huge declared length", RZE{}, append(hugeLen[:len(hugeLen):len(hugeLen)], 1, 2, 3)},
		{"RAZE huge declared length", RAZE{}, append(hugeLen[:len(hugeLen):len(hugeLen)], 1, 2, 3)},
		{"RARE huge declared length", RARE{}, append(hugeLen[:len(hugeLen):len(hugeLen)], 1, 2, 3)},
		{"FCM declared length beyond encoding", FCM{}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 1, 2}},
		{"RZE empty", RZE{}, nil},
		{"RAZE empty", RAZE{}, nil},
		{"RARE empty", RARE{}, nil},
		{"MPLG32 empty", MPLG{Word: wordio.W32}, nil},
		{"FCM truncated header", FCM{}, []byte{1, 2, 3}},
		{"RZE truncated length prefix", RZE{}, []byte{0x80}},
		// 16 declared bytes, bitmap claims all 16 non-zero, only 3 present.
		{"RZE inconsistent bitmap", RZE{}, []byte{16, 0xFF, 0xFF, 1, 2, 3}},
		{"RAZE split k out of range", RAZE{}, []byte{16, 200, 0, 0}},
		{"RARE split k out of range", RARE{}, []byte{16, 200, 0, 0}},
		{"RAZE k=0 truncated raw body", RAZE{}, []byte{16, 0, 1, 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dec, err := c.tr.InverseInto(nil, c.enc, NoLimit)
			if err == nil {
				t.Fatalf("InverseInto accepted corrupt input, returned %d bytes", len(dec))
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("error %v does not wrap ErrCorrupt", err)
			}
		})
	}
}

// TestTruncatedEncodings truncates genuine ForwardInto output at every prefix
// length; decoders must return (possibly wrong) data or an error, never
// panic, and self-describing decoders must never report success with a
// length other than the declared one.
func TestTruncatedEncodings(t *testing.T) {
	src := smoothFloats64(512, 99)
	for _, tr := range allTransforms() {
		enc := tr.ForwardInto(nil, src)
		for cut := 0; cut < len(enc); cut++ {
			dec, err := tr.InverseInto(nil, enc[:cut:cut], NoLimit)
			if err == nil && len(dec) > len(src) {
				t.Fatalf("%s: truncation to %d bytes decoded to %d > original %d",
					tr.Name(), cut, len(dec), len(src))
			}
		}
	}
}

// TestInverseLimitBudget verifies that every transform's InverseInto
// refuses to decode past a caller-supplied budget smaller than the real
// payload.
func TestInverseLimitBudget(t *testing.T) {
	src := smoothFloats32(16384, 3) // 64 KiB
	for _, tr := range allTransforms() {
		enc := tr.ForwardInto(nil, src)
		if _, err := tr.InverseInto(nil, enc, 1024); err == nil {
			t.Errorf("%s: InverseInto accepted %d-byte payload under 1 KiB budget",
				tr.Name(), len(src))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: budget error %v does not wrap ErrCorrupt", tr.Name(), err)
		}
		// The exact size as budget must still round-trip.
		dec, err := tr.InverseInto(nil, enc, len(src))
		if err != nil || len(dec) != len(src) {
			t.Errorf("%s: InverseInto with exact budget failed: %v", tr.Name(), err)
		}
		// NoLimit applies only the intrinsic caps.
		if _, err := tr.InverseInto(nil, enc, NoLimit); err != nil {
			t.Errorf("%s: InverseInto(NoLimit) failed: %v", tr.Name(), err)
		}
	}
}

// TestPipelineInverseLimit checks the stage-budget propagation: a full
// pipeline refuses a tiny budget but accepts the true size.
func TestPipelineInverseLimit(t *testing.T) {
	p := Pipeline{DiffMS{Word: wordio.W64}, RAZE{}, RARE{}}
	src := smoothFloats64(8192, 11) // 64 KiB
	enc := p.ForwardInto(nil, src)
	if _, err := p.InverseInto(nil, enc, 256); err == nil {
		t.Error("pipeline accepted 64 KiB payload under 256-byte budget")
	}
	dec, err := p.InverseInto(nil, enc, len(src))
	if err != nil || len(dec) != len(src) {
		t.Errorf("pipeline InverseInto with exact budget failed: %v", err)
	}
}
