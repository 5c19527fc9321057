package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fpcompress/internal/container"
	"fpcompress/internal/wordio"
)

func smoothSP(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n*4)
	v := 300.0
	for i := 0; i < n; i++ {
		v += math.Sin(float64(i)/40)*2 + rng.NormFloat64()*0.02
		wordio.PutU32(b, i, math.Float32bits(float32(v)))
	}
	return b
}

func smoothDP(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n*8)
	v := -50.0
	for i := 0; i < n; i++ {
		v += math.Cos(float64(i)/25) + rng.NormFloat64()*0.005
		wordio.PutU64(b, i, math.Float64bits(v))
	}
	return b
}

func TestStageListsMatchPaperFigure1(t *testing.T) {
	want := map[ID][]string{
		SPspeed: {"DIFFMS32", "MPLG32"},
		SPratio: {"DIFFMS32", "BIT32", "RZE"},
		DPspeed: {"DIFFMS64", "MPLG64"},
		DPratio: {"FCM64", "DIFFMS64", "RAZE", "RARE"},
	}
	for id, stages := range want {
		a, err := New(id)
		if err != nil {
			t.Fatal(err)
		}
		got := a.Stages()
		if len(got) != len(stages) {
			t.Fatalf("%s: %v, want %v", id, got, stages)
		}
		for i := range stages {
			if got[i] != stages[i] {
				t.Errorf("%s stage %d: %s, want %s", id, i, got[i], stages[i])
			}
		}
	}
}

// TestChunkCodecRoutes pins which transform each fixed algorithm's chunk
// codec runs: the fused kernel for the paper's four algorithms and
// windowed DPratio, the stage-by-stage pipeline for the balance
// extensions (no fusion exists). The byte-identity tests cannot see a lost
// fused route; only the throughput would.
func TestChunkCodecRoutes(t *testing.T) {
	windowed, err := NewWindowed(DPratio)
	if err != nil {
		t.Fatal(err)
	}
	want := map[*Algorithm]string{
		windowed: "*fused.FCMRatio64",
	}
	for id, w := range map[ID]string{
		SPspeed:   "*fused.Speed32",
		SPratio:   "*fused.Ratio32",
		DPspeed:   "*fused.Speed64",
		DPratio:   "*fused.Ratio64",
		SPbalance: "transforms.Pipeline",
		DPbalance: "transforms.Pipeline",
	} {
		a, err := New(id)
		if err != nil {
			t.Fatal(err)
		}
		want[a] = w
	}
	for a, w := range want {
		cc, ok := a.ChunkCodec().(chunkCodec)
		if !ok {
			t.Fatalf("%s: chunk codec is %T, want chunkCodec", a.Name(), a.ChunkCodec())
		}
		if got := fmt.Sprintf("%T", cc.Transform); got != w {
			t.Errorf("%s: chunks run through %s, want %s", a.Name(), got, w)
		}
	}
}

func TestAllAlgorithmsRoundtrip(t *testing.T) {
	inputs := map[string][]byte{
		"empty":      {},
		"tiny":       {1, 2, 3},
		"one word":   {0, 0, 128, 63, 0, 0, 0, 64},
		"smooth sp":  smoothSP(50000, 1),
		"smooth dp":  smoothDP(25000, 2),
		"random":     randomBytes(100001, 3),
		"zeros":      make([]byte, 123456),
		"odd length": smoothSP(10000, 4)[:39999],
	}
	for _, a := range All() {
		for name, src := range inputs {
			blob := a.Compress(src, container.Params{})
			dec, err := a.Decompress(blob, container.Params{})
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name(), name, err)
			}
			if !bytes.Equal(dec, src) {
				t.Errorf("%s/%s: roundtrip mismatch", a.Name(), name)
			}
		}
	}
}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestCompressionRatioOnSmoothData(t *testing.T) {
	sp := smoothSP(1<<18, 5)
	dp := smoothDP(1<<17, 6)
	ratios := map[ID]float64{}
	for _, a := range All() {
		src := sp
		if a.Word == wordio.W64 {
			src = dp
		}
		blob := a.Compress(src, container.Params{})
		ratios[a.ID] = float64(len(src)) / float64(len(blob))
	}
	// Smooth data must compress with every algorithm.
	for id, r := range ratios {
		if r < 1.2 {
			t.Errorf("%s: ratio %.3f on smooth data, want > 1.2", id, r)
		}
	}
	// The ratio modes must beat the speed modes on smooth data (that is
	// their entire purpose, §3.2).
	if ratios[SPratio] <= ratios[SPspeed] {
		t.Errorf("SPratio (%.3f) should exceed SPspeed (%.3f)", ratios[SPratio], ratios[SPspeed])
	}
	if ratios[DPratio] <= ratios[DPspeed] {
		t.Errorf("DPratio (%.3f) should exceed DPspeed (%.3f)", ratios[DPratio], ratios[DPspeed])
	}
}

func TestIncompressibleDataDoesNotExplode(t *testing.T) {
	src := randomBytes(1<<20, 7)
	for _, a := range All() {
		blob := a.Compress(src, container.Params{})
		limit := len(src) + len(src)/100 + 128
		if a.ID == DPratio {
			// FCM doubles the data before chunking; the raw fallback then
			// applies to the doubled stream.
			limit = 2*len(src) + len(src)/50 + 128
		}
		if len(blob) > limit {
			t.Errorf("%s: random input expanded %d -> %d", a.Name(), len(src), len(blob))
		}
	}
}

func TestDecompressWrongAlgorithmFails(t *testing.T) {
	sp, _ := New(SPspeed)
	dp, _ := New(DPspeed)
	blob := sp.Compress(smoothSP(1000, 8), container.Params{})
	if _, err := dp.Decompress(blob, container.Params{}); err == nil {
		t.Error("decompressing SPspeed data as DPspeed must fail")
	}
}

func TestFromContainer(t *testing.T) {
	for _, a := range All() {
		blob := a.Compress(smoothSP(100, 9), container.Params{})
		b, err := FromContainer(blob)
		if err != nil {
			t.Fatal(err)
		}
		if b.ID != a.ID {
			t.Errorf("FromContainer: got %s, want %s", b.ID, a.ID)
		}
	}
}

func TestNewRejectsUnknownID(t *testing.T) {
	if _, err := New(ID(200)); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestQuickRoundtripAllAlgorithms(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			f := func(src []byte) bool {
				blob := a.Compress(src, container.Params{})
				dec, err := a.Decompress(blob, container.Params{})
				return err == nil && bytes.Equal(dec, src)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestParallelCompressionIsDeterministic(t *testing.T) {
	src := smoothDP(1<<17, 10) // large enough for the parallel FCM encoder
	for _, a := range All() {
		one := a.Compress(src, container.Params{Parallelism: 1})
		many := a.Compress(src, container.Params{Parallelism: 8})
		if !bytes.Equal(one, many) {
			t.Errorf("%s: parallel output differs from serial", a.Name())
		}
	}
}

// TestPreStageDecodeParallelism decodes one whole-input DPratio container,
// large enough for the FCM pre-stage's parallel encoder and with far
// repeats, at several worker caps through both decode entry points: the
// bytes never change.
func TestPreStageDecodeParallelism(t *testing.T) {
	src := smoothDP(1<<17, 12)
	copy(src[len(src)/2:], src) // far repeats give FCM distance chains
	a, _ := New(DPratio)
	data := a.Compress(src, container.Params{})
	for _, w := range []int{1, 2, 0} {
		p := container.Params{Parallelism: w}
		if got, err := a.Decompress(data, p); err != nil || !bytes.Equal(got, src) {
			t.Errorf("Parallelism %d: Decompress differs (err %v)", w, err)
		}
		if got, _, err := a.DecompressPartial(data, p); err != nil || !bytes.Equal(got, src) {
			t.Errorf("Parallelism %d: DecompressPartial differs (err %v)", w, err)
		}
	}
}

// allExtended returns the paper's algorithms plus the repository's
// lcsynth-derived extensions and the adaptive auto modes.
func allExtended() []*Algorithm {
	return build(SPspeed, SPratio, DPspeed, DPratio, SPbalance, DPbalance, Auto32, Auto64)
}

// TestExtensionAlgorithms covers the repository's lcsynth-derived
// SPbalance/DPbalance pipelines: they must roundtrip, and on smooth data
// land between the paper's speed and ratio modes on compression ratio.
func TestExtensionAlgorithms(t *testing.T) {
	if len(allExtended()) != 8 || len(All()) != 4 {
		t.Fatal("algorithm set sizes wrong")
	}
	sp := smoothSP(1<<17, 31)
	ratios := map[ID]float64{}
	for _, id := range []ID{SPspeed, SPbalance, SPratio} {
		a, err := New(id)
		if err != nil {
			t.Fatal(err)
		}
		blob := a.Compress(sp, container.Params{})
		dec, err := a.Decompress(blob, container.Params{})
		if err != nil || !bytes.Equal(dec, sp) {
			t.Fatalf("%s: roundtrip failed", id)
		}
		ratios[id] = float64(len(sp)) / float64(len(blob))
	}
	// RZE's extra stage usually gains ratio; on data where MPLG output is
	// already dense it may cost its small header, so allow 2% slack.
	if ratios[SPbalance] < ratios[SPspeed]*0.98 {
		t.Errorf("SPbalance ratio %.3f should be near or above SPspeed %.3f", ratios[SPbalance], ratios[SPspeed])
	}
	dp := smoothDP(1<<16, 32)
	b, _ := New(DPbalance)
	blob := b.Compress(dp, container.Params{})
	dec, err := b.Decompress(blob, container.Params{})
	if err != nil || !bytes.Equal(dec, dp) {
		t.Fatal("DPbalance roundtrip failed")
	}
	if len(blob) >= len(dp) {
		t.Error("DPbalance did not compress smooth data")
	}
	if SPbalance.String() != "SPbalance" || DPbalance.String() != "DPbalance" {
		t.Error("extension names wrong")
	}
}
