package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"fpcompress/internal/container"
	"fpcompress/internal/core"
)

// startServer runs a Server on a loopback listener and tears it down with
// the test. It returns the server and its dialable address.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.IdlePoll == 0 {
		cfg.IdlePoll = 20 * time.Millisecond
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return s, ln.Addr().String()
}

// testConn is a raw protocol connection, used instead of the public
// client so this package tests the wire behavior directly.
type testConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialTest(t *testing.T, addr string) *testConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &testConn{c: c, br: bufio.NewReader(c)}
}

// roundTrip sends one request and reads the response. It returns rather
// than fails on transport errors so it is safe in spawned goroutines.
func (tc *testConn) roundTrip(op Op, alg byte, payload []byte) (Status, []byte, error) {
	if err := WriteRequest(tc.c, op, alg, payload); err != nil {
		return 0, nil, err
	}
	return ReadResponse(tc.br, 0)
}

// mustRoundTrip is roundTrip for the test goroutine.
func (tc *testConn) mustRoundTrip(t *testing.T, op Op, alg byte, payload []byte) (Status, []byte) {
	t.Helper()
	st, resp, err := tc.roundTrip(op, alg, payload)
	if err != nil {
		t.Fatal(err)
	}
	return st, resp
}

// testPayload builds smooth float bytes sized to the algorithm's word
// width so every pipeline sees representative data.
func testPayload(id core.ID, n int, seed int64) []byte {
	switch id {
	case core.SPspeed, core.SPratio, core.SPbalance, core.Auto32:
		b := make([]byte, n*4)
		for i := 0; i < n; i++ {
			u := math.Float32bits(float32(math.Sin(float64(i+int(seed))/40.0)) * 1e3)
			b[i*4] = byte(u)
			b[i*4+1] = byte(u >> 8)
			b[i*4+2] = byte(u >> 16)
			b[i*4+3] = byte(u >> 24)
		}
		return b
	default:
		b := make([]byte, n*8)
		for i := 0; i < n; i++ {
			u := math.Float64bits(math.Cos(float64(i+int(seed))/70.0) * 1e6)
			for j := 0; j < 8; j++ {
				b[i*8+j] = byte(u >> (8 * j))
			}
		}
		return b
	}
}

// TestRoundTripAllAlgorithms drives concurrent compress+decompress round
// trips for every registered algorithm ID (including the adaptive auto
// modes) over loopback and checks the server's bytes are identical to the
// local engine's.
func TestRoundTripAllAlgorithms(t *testing.T) {
	// The raw test connections do not retry on busy, so give the queue
	// room for all 18 concurrent connections.
	_, addr := startServer(t, Config{QueueDepth: 64})
	algs := []core.ID{core.SPspeed, core.SPratio, core.DPspeed, core.DPratio, core.SPbalance, core.DPbalance, core.Auto32, core.Auto64}
	var wg sync.WaitGroup
	for _, id := range algs {
		for worker := 0; worker < 3; worker++ {
			wg.Add(1)
			go func(id core.ID, worker int) {
				defer wg.Done()
				tc := dialTest(t, addr)
				for iter := 0; iter < 4; iter++ {
					src := testPayload(id, 3000+worker*100+iter, int64(worker*10+iter))
					a, err := core.New(id)
					if err != nil {
						t.Error(err)
						return
					}
					want := a.Compress(src, container.Params{Parallelism: 1})

					st, blob, err := tc.roundTrip(OpCompress, byte(id), src)
					if err != nil || st != StatusOK {
						t.Errorf("%v compress: status %v err %v", id, st, err)
						return
					}
					if !bytes.Equal(blob, want) {
						t.Errorf("%v: server container differs from local engine", id)
						return
					}
					st, raw, err := tc.roundTrip(OpDecompress, 0, blob)
					if err != nil || st != StatusOK {
						t.Errorf("%v decompress: status %v err %v", id, st, err)
						return
					}
					if !bytes.Equal(raw, src) {
						t.Errorf("%v: round trip mismatch (%d in, %d out)", id, len(src), len(raw))
						return
					}
				}
			}(id, worker)
		}
	}
	wg.Wait()
}

// TestBackpressure saturates a 1-worker, 0-queue server and checks the
// overflow request is rejected with StatusBusy (bounded memory: the job
// is never admitted), then that the pinned request still completes.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s, addr := startServer(t, Config{Concurrency: 1, QueueDepth: -1})
	s.execHook = func(Op) {
		entered <- struct{}{}
		<-release
	}

	src := testPayload(core.SPspeed, 2000, 1)
	slow := dialTest(t, addr)
	slowDone := make(chan Status, 1)
	go func() {
		st, _, err := slow.roundTrip(OpCompress, byte(core.SPspeed), src)
		if err != nil {
			t.Error(err)
		}
		slowDone <- st
	}()
	<-entered // the single worker is now pinned inside the hook

	fast := dialTest(t, addr)
	st, msg := fast.mustRoundTrip(t, OpCompress, byte(core.SPspeed), src)
	if st != StatusBusy {
		t.Fatalf("overflow request got status %v (%s), want StatusBusy", st, msg)
	}
	if !bytes.Contains(msg, []byte("busy")) {
		t.Errorf("busy payload %q does not name the condition", msg)
	}
	if got := s.StatsSnapshot().BusyRejections; got != 1 {
		t.Errorf("busy rejections = %d, want 1", got)
	}

	close(release)
	if st := <-slowDone; st != StatusOK {
		t.Fatalf("pinned request finished with status %v", st)
	}
	// After the pool drains the same connection is served normally.
	if st, _ := fast.mustRoundTrip(t, OpCompress, byte(core.SPspeed), src); st != StatusOK {
		t.Fatalf("post-drain request got status %v", st)
	}
}

// TestStatsOp checks the stats op reports non-zero counters and latency
// percentiles after traffic, and that it bypasses a saturated pool.
func TestStatsOp(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s, addr := startServer(t, Config{Concurrency: 1, QueueDepth: -1})
	s.execHook = func(Op) {
		entered <- struct{}{}
		<-release
	}

	src := testPayload(core.DPratio, 4000, 2)
	slow := dialTest(t, addr)
	slowDone := make(chan struct{})
	go func() {
		// The unqueued handoff answers busy until the worker goroutine
		// first waits for a job, which a loaded host may delay.
		for {
			if st, _, err := slow.roundTrip(OpCompress, byte(core.DPratio), src); err != nil || st != StatusBusy {
				break
			}
		}
		close(slowDone)
	}()
	<-entered

	// Stats must answer while the only worker is pinned.
	tc := dialTest(t, addr)
	st, payload := tc.mustRoundTrip(t, OpStats, 0, nil)
	close(release)
	<-slowDone // free the single worker before the warm-up traffic below
	if st != StatusOK {
		t.Fatalf("stats under saturation: status %v", st)
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatalf("stats payload is not JSON: %v", err)
	}
	if snap.Concurrency != 1 || snap.Inflight != 1 {
		t.Errorf("snapshot concurrency=%d inflight=%d, want 1 and 1", snap.Concurrency, snap.Inflight)
	}

	// Drive real traffic, then check the counters and percentiles moved.
	for i := 0; i < 5; i++ {
		if st, _ := tc.mustRoundTrip(t, OpCompress, byte(core.SPratio), testPayload(core.SPratio, 3000, int64(i))); st != StatusOK {
			t.Fatalf("warm-up compress %d: status %v", i, st)
		}
	}
	_, payload = tc.mustRoundTrip(t, OpStats, 0, nil)
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatal(err)
	}
	comp := snap.Ops[OpCompress.String()]
	if comp.Requests < 5 {
		t.Errorf("compress requests = %d, want >= 5", comp.Requests)
	}
	if comp.P50Us == 0 || comp.P99Us == 0 || comp.P99Us < comp.P50Us {
		t.Errorf("latency percentiles not populated: p50=%d p99=%d", comp.P50Us, comp.P99Us)
	}
	if comp.BytesIn == 0 || comp.BytesOut == 0 {
		t.Errorf("byte counters not populated: in=%d out=%d", comp.BytesIn, comp.BytesOut)
	}
	// The snapshot is marshaled before the serving stats request is
	// recorded, so it sees every earlier stats call but not itself.
	if stats := snap.Ops[OpStats.String()]; stats.Requests < 1 {
		t.Errorf("stats op requests = %d, want >= 1", stats.Requests)
	}

	// An adaptive-mode request surfaces the per-scheme selection counters.
	if st, _ := tc.mustRoundTrip(t, OpCompress, byte(core.Auto32), testPayload(core.Auto32, 8192, 7)); st != StatusOK {
		t.Fatalf("auto32 compress: status %v", st)
	}
	_, payload = tc.mustRoundTrip(t, OpStats, 0, nil)
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatal(err)
	}
	var autoChunks uint64
	for _, n := range snap.AutoSelection {
		autoChunks += n
	}
	if autoChunks == 0 {
		t.Errorf("auto_selection counters empty after an auto32 request: %v", snap.AutoSelection)
	}
}

// TestErrorStatuses exercises the typed failure paths of the protocol.
func TestErrorStatuses(t *testing.T) {
	_, addr := startServer(t, Config{MaxPayload: 4096})

	t.Run("unknown algorithm", func(t *testing.T) {
		tc := dialTest(t, addr)
		st, _ := tc.mustRoundTrip(t, OpCompress, 99, []byte{1, 2, 3})
		if st != StatusBadRequest {
			t.Errorf("status %v, want StatusBadRequest", st)
		}
	})
	t.Run("unknown op", func(t *testing.T) {
		tc := dialTest(t, addr)
		st, _ := tc.mustRoundTrip(t, Op(42), 0, nil)
		if st != StatusBadRequest {
			t.Errorf("status %v, want StatusBadRequest", st)
		}
	})
	// The algorithm byte is 0 in every request but a compress. A nonzero
	// one is a bad request that leaves the connection framed and open.
	for _, op := range []Op{OpDecompress, OpStats} {
		t.Run("algorithm byte on "+op.String(), func(t *testing.T) {
			tc := dialTest(t, addr)
			if st, msg := tc.mustRoundTrip(t, op, byte(core.SPspeed), nil); st != StatusBadRequest {
				t.Errorf("status %v (%q), want StatusBadRequest", st, msg)
			}
			if st, _ := tc.mustRoundTrip(t, OpStats, 0, nil); st != StatusOK {
				t.Errorf("stats after the refused request: status %v", st)
			}
		})
	}
	t.Run("algorithm byte in a response", func(t *testing.T) {
		var b bytes.Buffer
		if err := writeMessage(&b, byte(StatusOK), byte(core.SPspeed), []byte{1}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadResponse(&b, 0); !errors.Is(err, ErrProtocol) {
			t.Errorf("err %v, want ErrProtocol", err)
		}
	})
	t.Run("corrupt container", func(t *testing.T) {
		tc := dialTest(t, addr)
		st, _ := tc.mustRoundTrip(t, OpDecompress, 0, []byte("FPCZ not a container"))
		if st != StatusBadRequest && st != StatusError {
			t.Errorf("status %v, want a codec failure status", st)
		}
	})
	t.Run("oversized payload", func(t *testing.T) {
		tc := dialTest(t, addr)
		st, _ := tc.mustRoundTrip(t, OpCompress, byte(core.SPspeed), make([]byte, 8192))
		if st != StatusTooLarge {
			t.Errorf("status %v, want StatusTooLarge", st)
		}
		// The connection is dropped after a framing-level rejection.
		if _, err := tc.br.ReadByte(); err == nil {
			t.Error("connection still open after oversized request")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		tc := dialTest(t, addr)
		if _, err := tc.c.Write(bytes.Repeat([]byte{0xAB}, HeaderSize)); err != nil {
			t.Fatal(err)
		}
		st, _, err := ReadResponse(tc.br, 0)
		if err != nil || st != StatusBadRequest {
			t.Errorf("bad magic: status %v err %v, want StatusBadRequest", st, err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		tc := dialTest(t, addr)
		hdr := make([]byte, HeaderSize)
		putHeader(hdr, byte(OpCompress), byte(core.SPspeed), 0)
		hdr[4] = ProtocolVersion + 1
		if _, err := tc.c.Write(hdr); err != nil {
			t.Fatal(err)
		}
		st, _, err := ReadResponse(tc.br, 0)
		if err != nil || st != StatusUnsupported {
			t.Errorf("version mismatch: status %v err %v, want StatusUnsupported", st, err)
		}
	})
}

// TestGracefulShutdown checks Shutdown drains the in-flight request,
// closes idle connections, and makes Serve return ErrServerClosed.
func TestGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Concurrency: 1, IdlePoll: 20 * time.Millisecond})
	s.execHook = func(Op) {
		entered <- struct{}{}
		<-release
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	src := testPayload(core.SPspeed, 2000, 3)
	tc := dialTest(t, ln.Addr().String())
	idle := dialTest(t, ln.Addr().String())
	_ = idle

	inFlight := make(chan Status, 1)
	go func() {
		st, _, err := tc.roundTrip(OpCompress, byte(core.SPspeed), src)
		if err != nil {
			t.Error(err)
		}
		inFlight <- st
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// The listener closes promptly: new connections are refused while the
	// in-flight request is still draining.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := net.Dial("tcp", ln.Addr().String()); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)

	if st := <-inFlight; st != StatusOK {
		t.Errorf("in-flight request finished with status %v, want drained OK", st)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown returned %v, want nil (clean drain)", err)
	}
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestShutdownTimeout checks a request that outlives the drain budget is
// cut off and Shutdown reports the deadline error.
func TestShutdownTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	entered := make(chan struct{}, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Concurrency: 1, IdlePoll: 20 * time.Millisecond})
	s.execHook = func(Op) {
		entered <- struct{}{}
		<-release
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	tc := dialTest(t, ln.Addr().String())
	go func() { tc.roundTrip(OpCompress, byte(core.SPspeed), testPayload(core.SPspeed, 2000, 4)) }()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown returned %v, want DeadlineExceeded", err)
	}
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestPersistentConnection verifies many sequential requests ride one
// connection.
func TestPersistentConnection(t *testing.T) {
	_, addr := startServer(t, Config{})
	tc := dialTest(t, addr)
	for i := 0; i < 10; i++ {
		id := []core.ID{core.SPspeed, core.DPratio}[i%2]
		src := testPayload(id, 1000+i, int64(i))
		st, blob := tc.mustRoundTrip(t, OpCompress, byte(id), src)
		if st != StatusOK {
			t.Fatalf("request %d: status %v", i, st)
		}
		st, raw := tc.mustRoundTrip(t, OpDecompress, 0, blob)
		if st != StatusOK || !bytes.Equal(raw, src) {
			t.Fatalf("request %d: decompress status %v, equal=%v", i, st, bytes.Equal(raw, src))
		}
	}
}

// TestHostileContainerOverWire sends decoder-hostile containers through
// the wire protocol: each must come back as a typed error response on
// that request, with the connection still serving afterwards — never a
// dropped connection, never a daemon crash.
func TestHostileContainerOverWire(t *testing.T) {
	_, addr := startServer(t, Config{})
	tc := dialTest(t, addr)

	// Hand-assembled container declaring a 1 TiB output behind 4 payload
	// bytes; the result budget must refuse it before allocating.
	huge := []byte{'F', 'P', 'C', 'Z', 1, byte(core.SPspeed), 0, 0, 0, 0}
	huge = appendUvarint(huge, 1<<40)  // original length
	huge = appendUvarint(huge, 1<<40)  // chunk size
	huge = appendUvarint(huge, 1)      // chunk count
	huge = appendUvarint(huge, 4<<1|1) // one 4-byte compressed chunk
	huge = append(huge, 1, 2, 3, 4)

	for _, hostile := range [][]byte{huge, []byte("FPCZ\x01\x01 garbage"), {0xFF}} {
		st, msg := tc.mustRoundTrip(t, OpDecompress, 0, hostile)
		if st != StatusError && st != StatusBadRequest {
			t.Fatalf("hostile container: status %v (%q), want a typed error", st, msg)
		}
	}

	// The same connection must keep working after the rejections.
	src := testPayload(core.SPspeed, 1500, 9)
	st, blob := tc.mustRoundTrip(t, OpCompress, byte(core.SPspeed), src)
	if st != StatusOK {
		t.Fatalf("compress after hostile requests: status %v", st)
	}
	st, raw := tc.mustRoundTrip(t, OpDecompress, 0, blob)
	if st != StatusOK || !bytes.Equal(raw, src) {
		t.Fatalf("decompress after hostile requests: status %v", st)
	}
}

// appendUvarint is a tiny local copy so the test controls header bytes
// exactly without importing bitio.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// TestCodecPanicBackstop injects a panic into the codec path via the exec
// hook: it must surface as a StatusError response on that request while
// the daemon and the connection keep serving.
func TestCodecPanicBackstop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IdlePoll: 20 * time.Millisecond})
	s.execHook = func(Op) { panic("injected codec bug") }
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	defer func() {
		s.Close()
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}()

	tc := dialTest(t, ln.Addr().String())
	for i := 0; i < 2; i++ { // the worker must survive the first panic
		st, msg := tc.mustRoundTrip(t, OpCompress, byte(core.SPspeed), testPayload(core.SPspeed, 100, 1))
		if st != StatusError || !bytes.Contains(msg, []byte("panic")) {
			t.Fatalf("request %d: status %v (%q), want StatusError mentioning the panic", i, st, msg)
		}
	}
	if n := s.busyWorkers.Load(); n != 0 {
		t.Errorf("busy workers after the panics: %d, want 0", n)
	}
}
