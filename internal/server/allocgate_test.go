package server

import (
	"bufio"
	"math"
	"net"
	"runtime"
	"testing"

	"fpcompress/internal/core"
	"fpcompress/internal/wordio"
)

// TestAllocGateRequestLoop pins the serving hot path: once the payload
// pools are warm, one compress request served over a persistent loopback
// connection must stay under a small constant allocation ceiling. The
// count covers both sides of the loopback (the test client reuses its own
// buffers, so almost everything measured is the server: header reads,
// pooled payload reads, job dispatch, the codec round-trip in pooled
// buffers, and the framed response). Before payload pooling this path
// allocated the request buffer, the response container, and every codec
// scratch buffer per frame — hundreds of allocations.
func TestAllocGateRequestLoop(t *testing.T) {
	allocGateRequestLoop(t, Config{Concurrency: 1}, testing.AllocsPerRun)
}

// TestAllocGateRequestLoopBorrowed is the same gate on a two-worker pool,
// where each request borrows the idle worker and its codec runs on two
// engine workers: the claim and the wider engine call stay under the same
// ceiling. testing.AllocsPerRun measures at GOMAXPROCS 1, where nothing
// borrows, so this gate counts mallocs itself.
func TestAllocGateRequestLoopBorrowed(t *testing.T) {
	atLeastTwoProcs(t)
	srv := allocGateRequestLoop(t, Config{Concurrency: 2}, func(runs int, do func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			do()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(runs)
	})
	// The 8 warm-up requests and every measured one borrow.
	if got := srv.StatsSnapshot().WorkersBorrowed; got != 108 {
		t.Errorf("%d workers borrowed over 108 requests, want 108", got)
	}
}

// allocGateRequestLoop runs the request-loop allocation gate against a
// server built from cfg, taking the mean allocations per request from
// perRequest, and returns that server.
func allocGateRequestLoop(t *testing.T, cfg Config, perRequest func(runs int, do func()) float64) *Server {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 96.0 // allocs per request round-trip

	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)

	payload := make([]byte, 64<<10)
	for i := 0; i+8 <= len(payload); i += 8 {
		wordio.PutU64(payload[i:], 0, math.Float64bits(500+math.Sin(float64(i)/512)))
	}
	respBuf := new([]byte)
	do := func() {
		if err := WriteRequest(c, OpCompress, byte(core.DPspeed), payload); err != nil {
			t.Fatal(err)
		}
		kind, _, n, err := readHeader(br, 0)
		if err != nil {
			t.Fatal(err)
		}
		if Status(kind) != StatusOK {
			t.Fatalf("status %v", Status(kind))
		}
		if _, err := readPayloadInto(respBuf, br, n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // warm the connection, pools, and codec scratch
		do()
	}
	avg := perRequest(100, do)
	t.Logf("request loop: %.1f allocs/request (ceiling %.1f)", avg, ceiling)
	if avg > ceiling {
		t.Errorf("request loop: %.1f allocs/request, ceiling %.1f", avg, ceiling)
	}
	return srv
}
