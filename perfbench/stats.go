package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally counts verified operations. Every failed check is counted, and the
// first few are described on stderr; none is dropped.
type tally struct{ attempted, failed int64 }

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
		}
	}
	return ok
}

// samples collects per-operation latencies.
type samples []time.Duration

func (s samples) sorted() samples {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// quantile is the nearest-rank q-quantile (0 when empty).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

func (s samples) median() time.Duration { return s.quantile(0.5) }

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// mbps converts bytes moved in d to decimal megabytes per second.
func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// medianFloat is the median of vs (the mean of the middle pair for even n).
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := slices.Clone(vs)
	slices.Sort(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// memWindow measures heap allocation and GC activity between two points.
type memWindow struct{ start runtime.MemStats }

func openMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// close returns bytes allocated, GC cycles and total GC pause since open.
func (w *memWindow) close() (alloc uint64, gcs uint32, pause time.Duration) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return end.TotalAlloc - w.start.TotalAlloc, end.NumGC - w.start.NumGC,
		time.Duration(end.PauseTotalNs - w.start.PauseTotalNs)
}
