package gpusim

import "testing"

const MB = 1 << 20

func TestSPspeedNearPaperThroughput(t *testing.T) {
	// Figure 8: SPspeed compresses at ~518 GB/s on the RTX 4090. The model
	// should land in the same regime (within ~2x) for large inputs.
	m := Models["SPspeed"]
	in := 256 * MB
	out := in * 100 / 141 // paper's 1.41 geo-mean ratio
	gbps := RTX4090.ThroughputGBps(m.Compress, in, in, out)
	if gbps < 250 || gbps > 1000 {
		t.Errorf("SPspeed RTX4090 modeled at %.0f GB/s, want 250-1000", gbps)
	}
}

func TestSpeedExceedsRatioThroughput(t *testing.T) {
	in := 64 * MB
	for _, d := range []Device{RTX4090, A100} {
		fast := d.ThroughputGBps(Models["SPspeed"].Compress, in, in, in/2)
		slow := d.ThroughputGBps(Models["SPratio"].Compress, in, in, in/2)
		if fast <= slow {
			t.Errorf("%s: SPspeed (%.0f) must beat SPratio (%.0f)", d.Name, fast, slow)
		}
	}
}

func TestDPratioDecompressFasterThanCompress(t *testing.T) {
	// §5.2: "DPratio's decompression throughput is much higher than its
	// compression throughput because no sorting is required".
	in := 64 * MB
	m := Models["DPratio"]
	for _, d := range []Device{RTX4090, A100} {
		c := d.ThroughputGBps(m.Compress, in, in, in/3)
		dec := d.ThroughputGBps(m.Decompress, in, in/3, in)
		if dec < 3*c {
			t.Errorf("%s: DPratio decompress (%.0f) should be >>3x compress (%.0f)", d.Name, dec, c)
		}
	}
}

func TestOurCodesFasterOnNewerGPU(t *testing.T) {
	// §5.1: "we optimized our compressors for newer GPUs, which is why they
	// deliver substantially higher throughputs on the RTX 4090".
	in := 64 * MB
	for _, name := range []string{"SPspeed", "SPratio", "DPspeed", "DPratio"} {
		m := Models[name]
		new4090 := RTX4090.ThroughputGBps(m.Compress, in, in, in/2)
		old := A100.ThroughputGBps(m.Compress, in, in, in/2)
		if new4090 <= old {
			t.Errorf("%s: RTX4090 (%.0f) should beat A100 (%.0f)", name, new4090, old)
		}
	}
}

func TestBandwidthBoundCodeFasterOnA100(t *testing.T) {
	// The A100 has more memory bandwidth; a purely bandwidth-bound kernel
	// must be faster there (the Bitcomp-b phenomenon of §5.1).
	k := Kernel{OpsPerByte: 0.5, Passes: 1.1, Efficiency: 0.9, NoConcat: true, FullBW: true}
	in := 256 * MB
	if RTX4090.ThroughputGBps(k, in, in, in) >= A100.ThroughputGBps(k, in, in, in) {
		t.Error("bandwidth-bound kernel should favor the A100")
	}
}

func TestLaunchOverheadDominatesSmallInputs(t *testing.T) {
	m := Models["SPspeed"]
	small := RTX4090.ThroughputGBps(m.Compress, 4096, 4096, 2048)
	large := RTX4090.ThroughputGBps(m.Compress, 256*MB, 256*MB, 128*MB)
	if small >= large/10 {
		t.Errorf("4 kB input at %.1f GB/s should be far below %.1f GB/s", small, large)
	}
}

func TestLZFamilyIsSlow(t *testing.T) {
	in := 64 * MB
	lz := RTX4090.ThroughputGBps(Models["LZ4"].Compress, in, in, in)
	ours := RTX4090.ThroughputGBps(Models["SPspeed"].Compress, in, in, in/2)
	if lz > ours/5 {
		t.Errorf("LZ4 compress (%.0f GB/s) should be far below SPspeed (%.0f GB/s)", lz, ours)
	}
}

func TestDeviceByName(t *testing.T) {
	if d, err := DeviceByName("rtx4090"); err != nil || d.Name != "RTX 4090" {
		t.Error("rtx4090 lookup failed")
	}
	if d, err := DeviceByName("a100"); err != nil || d.Name != "A100" {
		t.Error("a100 lookup failed")
	}
	if _, err := DeviceByName("tpu"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestModelFor(t *testing.T) {
	if _, ok := ModelFor("SPspeed"); !ok {
		t.Error("SPspeed missing")
	}
	if _, ok := ModelFor("ZSTD-best"); !ok {
		t.Error("mode suffix not stripped")
	}
	if _, ok := ModelFor("nonexistent"); ok {
		t.Error("bogus name resolved")
	}
}

func TestEveryModelProducesFiniteTimes(t *testing.T) {
	for name, m := range Models {
		for _, d := range []Device{RTX4090, A100} {
			for _, k := range []Kernel{m.Compress, m.Decompress} {
				tt := d.Time(k, MB, MB/2)
				if tt <= 0 || tt > 10 {
					t.Errorf("%s on %s: time %.3g s out of range", name, d.Name, tt)
				}
			}
		}
	}
}

func TestTransferPlan(t *testing.T) {
	plan := TransferPlan{CompressGBps: 500, DecompressGBps: 520, Ratio: 1.5}
	// On NVLink (900 GB/s): wire carries 1350 GB/s of original data, but
	// the codec caps at 500 — slower than raw NVLink.
	if s := plan.Speedup(NVLink4); s >= 1 {
		t.Errorf("NVLink speedup %.2f, want < 1 (codec-bound)", s)
	}
	// On PCIe (242 GB/s): wire carries 363, codec 500 -> effective 363,
	// a 1.5x speedup.
	if s := plan.Speedup(PCIe5x16); s < 1.49 || s > 1.51 {
		t.Errorf("PCIe speedup %.2f, want ~1.5 (wire-bound)", s)
	}
	// On a NIC, always wire-bound: speedup equals the ratio.
	if s := plan.Speedup(DataCenterEthernet); s < 1.49 || s > 1.51 {
		t.Errorf("NIC speedup %.2f, want ~1.5", s)
	}
	// Ratio below 1 (expansion) can never help.
	bad := TransferPlan{CompressGBps: 1e6, DecompressGBps: 1e6, Ratio: 0.9}
	if s := bad.Speedup(PCIe5x16); s >= 1 {
		t.Errorf("expanding codec speedup %.2f, want < 1", s)
	}
	// A slow decompressor caps the pipeline.
	slow := TransferPlan{CompressGBps: 1000, DecompressGBps: 50, Ratio: 3}
	if e := slow.EffectiveGBps(PCIe5x16); e != 50 {
		t.Errorf("effective %.0f, want 50 (decompress-bound)", e)
	}
}

func TestLaunchSimMatchesRooflineOnUniformChunks(t *testing.T) {
	// Many identical chunks: the discrete-event makespan should land near
	// the flat analytic model (within ~30%: scheduling granularity and
	// overhead accounting differ).
	k := Models["SPspeed"].Compress
	nChunks := 16384 // 256 MB / 16 kB
	in := make([]int, nChunks)
	out := make([]int, nChunks)
	for i := range in {
		in[i] = 16384
		out[i] = 16384 * 100 / 141
	}
	res := RTX4090.SimulateLaunch(k, in, out, Dynamic)
	flat := RTX4090.ThroughputGBps(k, nChunks*16384, nChunks*16384, nChunks*(16384*100/141))
	if res.ThroughputGBps < flat*0.7 || res.ThroughputGBps > flat*1.3 {
		t.Errorf("launch sim %.0f GB/s vs roofline %.0f GB/s", res.ThroughputGBps, flat)
	}
	if res.Utilization < 0.95 {
		t.Errorf("uniform chunks should saturate SMs, got %.2f", res.Utilization)
	}
}

func TestDynamicBeatsStaticOnSkewedChunks(t *testing.T) {
	// The paper's dynamic worklist claim: with skewed chunk costs, dynamic
	// assignment's makespan must not exceed static round-robin's, and
	// should clearly win when the skew aligns badly with round-robin.
	k := Models["SPratio"].Compress
	n := 2048
	in := make([]int, n)
	out := make([]int, n)
	for i := range in {
		in[i] = 16384
		out[i] = 4096
		if i%128 < 4 {
			out[i] = 16384 // incompressible runs: heavier chunks, clustered
			in[i] = 16384 * 4
		}
	}
	dyn := RTX4090.SimulateLaunch(k, in, out, Dynamic)
	stat := RTX4090.SimulateLaunch(k, in, out, Static)
	if dyn.MakespanSec > stat.MakespanSec*1.0001 {
		t.Errorf("dynamic (%.3g s) worse than static (%.3g s)", dyn.MakespanSec, stat.MakespanSec)
	}
	if dyn.Utilization < stat.Utilization {
		t.Errorf("dynamic utilization %.3f below static %.3f", dyn.Utilization, stat.Utilization)
	}
}

func TestLaunchSimEmpty(t *testing.T) {
	res := A100.SimulateLaunch(Models["DPspeed"].Compress, nil, nil, Dynamic)
	if res.ThroughputGBps != 0 || res.Utilization != 1 {
		t.Errorf("empty launch: %+v", res)
	}
}
