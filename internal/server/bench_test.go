package server_test

// External test package: it drives the server through the public
// fpcompress.Client, which the internal package cannot import without a
// cycle (fpcompress -> internal/server).

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpcompress"
	"fpcompress/internal/server"
)

type benchResult struct {
	Algorithm     string  `json:"algorithm"`
	Clients       int     `json:"clients"`
	Requests      uint64  `json:"requests"`
	RequestsPerS  float64 `json:"requests_per_sec"`
	MBPerS        float64 `json:"mb_per_sec"`
	P50Us         uint64  `json:"p50_us"`
	P99Us         uint64  `json:"p99_us"`
	BusyRejection uint64  `json:"busy_rejections"`
}

type benchReport struct {
	Benchmark    string        `json:"benchmark"`
	PayloadBytes int           `json:"payload_bytes"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	Results      []benchResult `json:"results"`
}

// TestEmitServerBench measures loopback serving throughput (requests/sec
// and raw MB/s) for SPspeed and DPratio at 1, 4, and GOMAXPROCS
// concurrent clients, and writes BENCH_server.json at the repository root
// to start the serving-performance trajectory.
func TestEmitServerBench(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark emit in -short mode")
	}
	const payloadValues = 1 << 17 // 512 KiB f32 / 1 MiB f64 per request
	procs := runtime.GOMAXPROCS(0)
	clientCounts := []int{1, 4, procs}
	report := benchReport{
		Benchmark:    "server_loopback_throughput",
		PayloadBytes: payloadValues * 4,
		GOMAXPROCS:   procs,
	}

	f32 := make([]float32, payloadValues)
	f64 := make([]float64, payloadValues/2)
	for i := range f32 {
		f32[i] = float32(i%1000) * 0.25
	}
	for i := range f64 {
		f64[i] = float64(i%1000) * 0.25
	}
	payloads := map[fpcompress.Algorithm][]byte{
		fpcompress.SPspeed: fpcompress.Float32Bytes(f32),
		fpcompress.DPratio: fpcompress.Float64Bytes(f64),
	}

	// Deduplicate (GOMAXPROCS may be 1 or 4).
	seen := map[int]bool{}
	uniq := clientCounts[:0]
	for _, n := range clientCounts {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	for _, alg := range []fpcompress.Algorithm{fpcompress.SPspeed, fpcompress.DPratio} {
		for _, nClients := range uniq {
			res := runBenchConfig(t, alg, payloads[alg], nClients)
			report.Results = append(report.Results, res)
			t.Logf("%s clients=%d: %.0f req/s, %.1f MB/s (p50=%dus p99=%dus busy=%d)",
				res.Algorithm, res.Clients, res.RequestsPerS, res.MBPerS, res.P50Us, res.P99Us, res.BusyRejection)
		}
	}

	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// Only a run that names this test (make bench-server) rewrites the
	// committed report; a plain go test ./... measures, logs and stops.
	if f := flag.Lookup("test.run"); f == nil || !strings.Contains(f.Value.String(), t.Name()) {
		t.Logf("BENCH_server.json left unchanged: -run does not name %s", t.Name())
		return
	}
	if err := os.WriteFile("../../BENCH_server.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runBenchConfig serves one (algorithm, client-count) cell on a fresh
// server so its stats isolate the cell's latency distribution.
func runBenchConfig(t *testing.T, alg fpcompress.Algorithm, payload []byte, nClients int) benchResult {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{IdlePoll: 20 * time.Millisecond})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	const duration = 200 * time.Millisecond
	var requests, bytes atomic.Uint64
	stop := time.Now().Add(duration)
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := fpcompress.Dial(ln.Addr().String(), &fpcompress.ClientOptions{
				MaxRetries: 1000, RetryBackoff: 200 * time.Microsecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for time.Now().Before(stop) {
				if _, err := c.Compress(alg, payload); err != nil {
					t.Error(err)
					return
				}
				requests.Add(1)
				bytes.Add(uint64(len(payload)))
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	statsClient, err := fpcompress.Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer statsClient.Close()
	stats, err := statsClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	comp := stats.Ops["compress"]
	if comp.Requests == 0 || comp.P50Us == 0 {
		t.Errorf("bench server stats empty: %+v", comp)
	}
	return benchResult{
		Algorithm:     fmt.Sprint(alg),
		Clients:       nClients,
		Requests:      requests.Load(),
		RequestsPerS:  float64(requests.Load()) / elapsed,
		MBPerS:        float64(bytes.Load()) / elapsed / 1e6,
		P50Us:         comp.P50Us,
		P99Us:         comp.P99Us,
		BusyRejection: stats.BusyRejections,
	}
}
