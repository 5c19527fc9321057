package container

import (
	"bytes"
	"errors"
	"testing"
)

// writerPairs lists every (version, flags) header pair a writer emits, with
// the section set it stands for. Versions 1 and 2 have no flags byte (-1).
var writerPairs = []struct {
	version byte
	flags   int
	l       layout
}{
	{1, -1, layout{}},
	{2, -1, layout{schemes: true}},
	{3, 0x0, layout{integrity: true}},
	{3, 0x1, layout{integrity: true, schemes: true}},
	{3, 0x2, layout{integrity: true, parity: true}},
	{3, 0x3, layout{integrity: true, parity: true, schemes: true}},
	{4, 0x4, layout{windowed: true}},
	{4, 0x5, layout{windowed: true, schemes: true}},
	{4, 0xc, layout{windowed: true, integrity: true}},
	{4, 0xd, layout{windowed: true, integrity: true, schemes: true}},
	{4, 0xe, layout{windowed: true, integrity: true, parity: true}},
	{4, 0xf, layout{windowed: true, integrity: true, parity: true, schemes: true}},
}

// TestLayoutAcceptance feeds parseLayout every version byte × flags byte
// and requires it to accept exactly the writer pairs, each as its own
// section set, and to reject everything else with ErrFormat.
func TestLayoutAcceptance(t *testing.T) {
	want := map[[2]int]layout{}
	for _, p := range writerPairs {
		want[[2]int{int(p.version), p.flags}] = p.l
	}
	accepted := map[[2]int]bool{}
	for v := 0; v < 256; v++ {
		for f := 0; f < 256; f++ {
			data := []byte{'F', 'P', 'C', 'Z', byte(v), 0, 0, 0, 0, 0, byte(f)}
			key := [2]int{v, f}
			if v < 3 {
				key[1] = -1 // the byte after the fixed header is not a flags byte
			}
			l, err := parseLayout(data)
			wl, ok := want[key]
			switch {
			case ok && err != nil:
				t.Fatalf("version %d flags %#02x: rejected writer pair: %v", v, f, err)
			case ok && l != wl:
				t.Fatalf("version %d flags %#02x: layout %+v, want %+v", v, f, l, wl)
			case !ok && err == nil:
				t.Fatalf("version %d flags %#02x: accepted as %+v, no writer emits it", v, f, l)
			case !ok && !errors.Is(err, ErrFormat):
				t.Fatalf("version %d flags %#02x: error %v does not wrap ErrFormat", v, f, err)
			}
			if ok {
				accepted[key] = true
				if l.version() != byte(v) || (v >= 3 && l.flags() != byte(f)) {
					t.Fatalf("version %d flags %#02x: writes back (%d, %#02x)", v, f, l.version(), l.flags())
				}
			}
		}
	}
	if len(accepted) != len(writerPairs) {
		t.Fatalf("accepted %d writer pairs, want %d", len(accepted), len(writerPairs))
	}
}

// TestLayoutWriters round-trips every writer layout — plain and scheme
// codecs × {plain, Integrity, Parity: 2} × {whole-input, windowed} —
// through CompressAppend and Parse, checking the version byte, the section
// set and the Report fields rewrites rely on.
func TestLayoutWriters(t *testing.T) {
	src := schemeTestSrc(256, 9)
	codecs := []struct {
		name  string
		codec Codec
	}{{"plain", shrinkCodec{}}, {"schemes", schemeTestCodec{}}}
	modes := []struct {
		name string
		p    Params
	}{{"bare", Params{}}, {"integrity", Params{Integrity: true}}, {"parity", Params{Parity: 2}}}
	seen := map[layout]bool{}
	for _, c := range codecs {
		for _, m := range modes {
			for _, windowed := range []bool{false, true} {
				p := m.p
				p.ChunkSize = 256
				p.Windowed = windowed
				want := layout{
					schemes:   c.name == "schemes",
					integrity: m.name != "bare",
					parity:    m.name == "parity",
					windowed:  windowed,
				}
				blob := CompressAppend([]byte("prefix"), src, 9, c.codec, p)[len("prefix"):]
				h, err := Parse(blob)
				if err != nil {
					t.Fatalf("%s/%s/windowed=%v: %v", c.name, m.name, windowed, err)
				}
				var pair [2]int
				for _, wp := range writerPairs {
					if wp.l == want {
						pair = [2]int{int(wp.version), wp.flags}
					}
				}
				got := [2]int{int(blob[4]), -1}
				if h.layout.hasFlagsByte() {
					got[1] = int(blob[10])
				}
				if h.layout != want || got != pair || h.Version != blob[4] {
					t.Fatalf("%s/%s/windowed=%v: layout %+v header %v, want %+v header %v",
						c.name, m.name, windowed, h.layout, got, want, pair)
				}
				rep := h.NewReport()
				wantGroup := 0
				if want.parity {
					wantGroup = 2
				}
				if rep.Integrity != want.integrity || rep.Windowed != windowed || rep.ParityGroup != wantGroup {
					t.Fatalf("%s/%s/windowed=%v: report integrity=%v windowed=%v parity=%d",
						c.name, m.name, windowed, rep.Integrity, rep.Windowed, rep.ParityGroup)
				}
				dec, err := DecompressAppend(nil, blob, c.codec, Params{})
				if err != nil || !bytes.Equal(dec, src) {
					t.Fatalf("%s/%s/windowed=%v: round trip failed: %v", c.name, m.name, windowed, err)
				}
				seen[want] = true
			}
		}
	}
	if len(seen) != len(writerPairs) {
		t.Fatalf("wrote %d distinct layouts, want %d", len(seen), len(writerPairs))
	}
}
