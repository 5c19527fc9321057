// Command perfbench is fpcompress's seeded, layered benchmark. One run
// generates the inputs of one workload from its seed, drives them through
// the root API (and, for serve-auto, an in-process fpcd), checks every
// output, and prints one JSON result as its last line: the end-to-end
// metrics, or with -trace 1 the per-layer metrics. README.md describes the
// workloads and metrics; run it through run.sh, which builds it.
//
//	perfbench -workload sp-archive -seed 1 -seconds 20 -trace 0 [-save out.json]
//	perfbench compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"fpcompress/internal/simd"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up state is measured.
const setupRepeats = 3

// workload is one set-up workload state.
type workload interface {
	run(d time.Duration, t *tally, r *result)
	runTraced(d time.Duration, t *tally, r *result)
	close()
}

func setup(name string, seed uint64, t *tally) (workload, error) {
	if spec, ok := bulkSpecs[name]; ok {
		return setupBulk(spec, seed, t), nil
	}
	if name == "serve-auto" {
		return setupServe(seed, t)
	}
	return nil, fmt.Errorf("unknown workload %q (want sp-archive, dp-ratio or serve-auto)", name)
}

// perLayer lists every per-layer metric a traced run reports. A layer a
// workload leaves idle reports 0.
var perLayer = []struct{ name, unit string }{
	{"core.pre_fwd_ms", "ms"}, {"core.pre_inv_ms", "ms"}, {"core.pre_alloc_B_per_B", "B/B"},
	{"transforms.fwd_ms", "ms"}, {"transforms.inv_ms", "ms"},
	{"transforms.fwd_MBps", "MB/s"}, {"transforms.inv_MBps", "MB/s"},
	{"selector.predict_ms", "ms"}, {"selector.encode_ms", "ms"},
	{"selector.reencode_tried", "count"}, {"selector.reencode_kept_frac", "frac"},
	{"selector.chunks.mplg32", "count"}, {"selector.chunks.bit_rze32", "count"},
	{"selector.chunks.mplg_rze32", "count"}, {"selector.chunks.mplg64", "count"},
	{"selector.chunks.raze_rare64", "count"}, {"selector.chunks.mplg_rze64", "count"},
	{"container.self_fwd_ms", "ms"}, {"container.self_inv_ms", "ms"},
	{"container.crc_est_ms", "ms"}, {"container.parse_us", "us"},
	{"container.speedup_Nw", "x"}, {"container.raw_chunk_frac", "frac"},
	{"fpcompress.ra_chunks_per_read", "count"}, {"fpcompress.ra_chunk_decode_us", "us"},
	{"fpcompress.unattributed_ms", "ms"},
	{"server.exec_us", "us"}, {"server.codec_us", "us"},
	{"server.outside_exec_us", "us"}, {"server.busy_rejections", "count"},
	{"runtime.gc_cycles_per_op", "count"}, {"runtime.gc_pause_ms_per_op", "ms"},
	{"trace.overhead_frac", "frac"}, {"trace.unattributed_frac", "frac"},
}

// fingerprint identifies the host and build a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	KernelPath string `json:"kernel_path"`
	GoVersion  string `json:"go_version"`
}

func hostFingerprint() fingerprint {
	info := simd.RuntimeInfo()
	return fingerprint{
		CPU: info.CPUModel, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64: info.GOAMD64, KernelPath: info.KernelPath, GoVersion: runtime.Version(),
	}
}

// saved is the file -save writes and compare reads.
type saved struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Trace       int         `json:"trace"`
	Result      result      `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	name := flag.String("workload", "", "sp-archive, dp-ratio or serve-auto")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	save := flag.String("save", "", "also write the result and host fingerprint to this file")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *save); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, save string) error {
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("bad -seconds %v or -trace %d", seconds, trace)
	}
	t := &tally{}
	var w workload
	var setups []float64
	for range setupRepeats {
		if w != nil {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = setup(name, seed, t); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	r := &result{Metrics: map[string]metric{}}
	d := time.Duration(seconds * float64(time.Second))
	if trace == 1 {
		w.runTraced(d, t, r)
		for _, m := range perLayer {
			if _, ok := r.Metrics[m.name]; !ok {
				r.set(m.name, m.unit, 0)
			}
		}
	} else {
		w.run(d, t, r)
		r.set("setup_s", "s", medianFloat(setups))
	}
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.failed == 0 && t.attempted > 0

	fp := hostFingerprint()
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpLine)
	if save != "" {
		b, _ := json.MarshalIndent(saved{fp, name, seed, trace, *r}, "", "  ")
		if err := os.WriteFile(save, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
