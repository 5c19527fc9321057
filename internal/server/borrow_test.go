package server

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpcompress/internal/container"
	"fpcompress/internal/core"
	"fpcompress/internal/transforms"
)

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test when it is lower:
// a request borrows no more workers than GOMAXPROCS, so on one processor
// nothing would borrow.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// multiChunk is a DPspeed payload of four default-size chunks, and
// oneChunk a payload of one.
var (
	multiChunk = testPayload(core.DPspeed, 4*container.DefaultChunkSize/8, 1)
	oneChunk   = testPayload(core.DPspeed, 1000, 1)
)

// holdJobs installs an execHook that holds every codec job until release
// is closed, and returns a channel that receives once per job held.
func holdJobs(s *Server, release chan struct{}) <-chan struct{} {
	entered := make(chan struct{}, 8)
	s.execHook = func(Op) {
		entered <- struct{}{}
		<-release
	}
	return entered
}

// TestIdleServerBorrows: on an idle two-worker pool a multi-chunk compress
// and its decompress each borrow the idle worker; a one-chunk request
// borrows nothing, since a second engine worker would have no chunk.
func TestIdleServerBorrows(t *testing.T) {
	atLeastTwoProcs(t)
	s, addr := startServer(t, Config{Concurrency: 2})
	tc := dialTest(t, addr)
	st, blob := tc.mustRoundTrip(t, OpCompress, byte(core.DPspeed), multiChunk)
	if st != StatusOK {
		t.Fatalf("compress: status %v (%s)", st, blob)
	}
	if st, raw := tc.mustRoundTrip(t, OpDecompress, 0, blob); st != StatusOK || !bytes.Equal(raw, multiChunk) {
		t.Fatalf("decompress: status %v, round trip equal %v", st, bytes.Equal(raw, multiChunk))
	}
	if got := s.StatsSnapshot().WorkersBorrowed; got != 2 {
		t.Errorf("after a multi-chunk compress and decompress: %d workers borrowed, want 2", got)
	}
	if st, _ := tc.mustRoundTrip(t, OpCompress, byte(core.DPspeed), oneChunk); st != StatusOK {
		t.Fatalf("one-chunk compress: status %v", st)
	}
	if got := s.StatsSnapshot().WorkersBorrowed; got != 2 {
		t.Errorf("a one-chunk request borrowed: %d workers borrowed, want 2", got)
	}
	if n := s.busyWorkers.Load(); n != 0 {
		t.Errorf("busy workers after the requests: %d, want 0", n)
	}
}

// TestBusyPoolBorrowsNothing holds two jobs in flight on a two-worker
// pool: the multi-chunk one starts with the other worker busy and
// borrows nothing.
func TestBusyPoolBorrowsNothing(t *testing.T) {
	atLeastTwoProcs(t)
	release := make(chan struct{})
	s, addr := startServer(t, Config{Concurrency: 2})
	entered := holdJobs(s, release)
	var wg sync.WaitGroup
	for _, payload := range [][]byte{oneChunk, multiChunk} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := dialTest(t, addr)
			if st, _, err := tc.roundTrip(OpCompress, byte(core.DPspeed), payload); err != nil || st != StatusOK {
				t.Errorf("compress: status %v err %v", st, err)
			}
		}()
		<-entered // the next job starts only once this one holds its worker
	}
	if got := s.StatsSnapshot().WorkersBorrowed; got != 0 {
		t.Errorf("two jobs in flight on a two-worker pool: %d workers borrowed, want 0", got)
	}
	if n := s.busyWorkers.Load(); n != 2 {
		t.Errorf("busy workers with two jobs in flight: %d, want 2", n)
	}
	close(release)
	wg.Wait()
	if n := s.busyWorkers.Load(); n != 0 {
		t.Errorf("busy workers after both jobs: %d, want 0", n)
	}
}

// TestQueuedRequestStopsBorrowing fills the queue before the pool starts:
// the two jobs the workers take start with a third request waiting, so
// neither borrows, although each is multi-chunk and the pool has no other
// job running.
func TestQueuedRequestStopsBorrowing(t *testing.T) {
	atLeastTwoProcs(t)
	s := New(Config{Concurrency: 2, QueueDepth: 4})
	release := make(chan struct{})
	entered := holdJobs(s, release)
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := s.dispatch(OpCompress, byte(core.DPspeed), multiChunk)
			if res.status != StatusOK {
				t.Errorf("compress: status %v (%s)", res.status, res.payload)
			}
			res.release()
		}()
	}
	for len(s.queue) < 3 {
		time.Sleep(time.Millisecond)
	}
	s.ensureWorkers()
	<-entered
	<-entered
	if got := s.StatsSnapshot().WorkersBorrowed; got != 0 {
		t.Errorf("jobs started with a request queued: %d workers borrowed, want 0", got)
	}
	close(release)
	wg.Wait()
	s.Close()
}

// TestLargeRequestBorrowsNothing: a request over borrowMaxBytes of raw
// data runs on its own worker even on an idle pool, compress and
// decompress alike, while one at the limit borrows.
func TestLargeRequestBorrowsNothing(t *testing.T) {
	atLeastTwoProcs(t)
	s, addr := startServer(t, Config{Concurrency: 2})
	tc := dialTest(t, addr)
	atLimit := testPayload(core.DPspeed, borrowMaxBytes/8, 1)
	if st, _ := tc.mustRoundTrip(t, OpCompress, byte(core.DPspeed), atLimit); st != StatusOK {
		t.Fatalf("compress at the limit: status %v", st)
	}
	if got := s.StatsSnapshot().WorkersBorrowed; got != 1 {
		t.Fatalf("compress at the limit: %d workers borrowed, want 1", got)
	}
	over := testPayload(core.DPspeed, borrowMaxBytes/8+1, 1)
	st, blob := tc.mustRoundTrip(t, OpCompress, byte(core.DPspeed), over)
	if st != StatusOK {
		t.Fatalf("compress over the limit: status %v", st)
	}
	if st, raw := tc.mustRoundTrip(t, OpDecompress, 0, blob); st != StatusOK || !bytes.Equal(raw, over) {
		t.Fatalf("decompress over the limit: status %v, round trip equal %v", st, bytes.Equal(raw, over))
	}
	if got := s.StatsSnapshot().WorkersBorrowed; got != 1 {
		t.Errorf("after a compress and a decompress over the limit: %d workers borrowed, want 1", got)
	}
}

// TestFixedParallelismNeverBorrows: a positive CodecParallelism is the
// worker count of every request, whatever the pool's idle capacity.
func TestFixedParallelismNeverBorrows(t *testing.T) {
	atLeastTwoProcs(t)
	s, addr := startServer(t, Config{Concurrency: 2, CodecParallelism: 1})
	tc := dialTest(t, addr)
	st, blob := tc.mustRoundTrip(t, OpCompress, byte(core.DPspeed), multiChunk)
	if st != StatusOK {
		t.Fatalf("compress: status %v", st)
	}
	if st, _ := tc.mustRoundTrip(t, OpDecompress, 0, blob); st != StatusOK {
		t.Fatalf("decompress: status %v", st)
	}
	if got := s.StatsSnapshot().WorkersBorrowed; got != 0 {
		t.Errorf("CodecParallelism 1: %d workers borrowed, want 0", got)
	}
}

// TestBorrowedWorkersReturned: a job gives back every worker it claimed
// when it fails as when it succeeds. TestCodecPanicBackstop and
// TestBorrowedWorkerPanic check the panic path.
func TestBorrowedWorkersReturned(t *testing.T) {
	atLeastTwoProcs(t)
	s, addr := startServer(t, Config{Concurrency: 2})
	tc := dialTest(t, addr)
	st, blob := tc.mustRoundTrip(t, OpCompress, byte(core.DPspeed), multiChunk)
	if st != StatusOK {
		t.Fatalf("compress: status %v", st)
	}
	if n := s.busyWorkers.Load(); n != 0 {
		t.Errorf("busy workers after a success: %d, want 0", n)
	}
	bad := bytes.Clone(blob)
	bad[len(bad)-1] ^= 0xff // a payload byte: the header still parses
	if st, _ := tc.mustRoundTrip(t, OpDecompress, 0, bad); st != StatusError {
		t.Fatalf("corrupt decompress: status %v, want StatusError", st)
	}
	if got := s.StatsSnapshot().WorkersBorrowed; got != 2 {
		t.Errorf("workers borrowed: %d, want 2 (the failing decode borrows too)", got)
	}
	if n := s.busyWorkers.Load(); n != 0 {
		t.Errorf("busy workers after a codec error: %d, want 0", n)
	}
}

// TestBorrowedBytesIdentical sends every algorithm's compress and
// decompress over one connection to an idle two-worker pool, so each
// request runs on two engine workers, and checks the bytes against the
// in-process calls at one worker.
func TestBorrowedBytesIdentical(t *testing.T) {
	atLeastTwoProcs(t)
	s, addr := startServer(t, Config{Concurrency: 2})
	tc := dialTest(t, addr)
	algs := []core.ID{core.SPspeed, core.SPratio, core.DPspeed, core.DPratio, core.SPbalance, core.DPbalance, core.Auto32, core.Auto64}
	for _, id := range algs {
		a, err := core.New(id)
		if err != nil {
			t.Fatal(err)
		}
		src := testPayload(id, 20000, int64(id))
		p := container.Params{Parallelism: 1}
		want := a.Compress(src, p)
		st, blob := tc.mustRoundTrip(t, OpCompress, byte(id), src)
		if st != StatusOK || !bytes.Equal(blob, want) {
			t.Errorf("%v compress: status %v, bytes equal to the one-worker call %v", id, st, bytes.Equal(blob, want))
			continue
		}
		wantRaw, err := a.Decompress(want, p)
		if err != nil {
			t.Fatal(err)
		}
		st, raw := tc.mustRoundTrip(t, OpDecompress, 0, want)
		if st != StatusOK || !bytes.Equal(raw, wantRaw) {
			t.Errorf("%v decompress: status %v, bytes equal to the one-worker call %v", id, st, bytes.Equal(raw, wantRaw))
		}
	}
	if got, want := s.StatsSnapshot().WorkersBorrowed, uint64(2*len(algs)); got != want {
		t.Errorf("%d workers borrowed, want %d (one per request)", got, want)
	}
}

// pairPanic is a chunk transform whose first two calls, forward or
// inverse, each panic once both have started. On a request running on
// two engine workers those calls run on different goroutines, so one of
// the panics is raised on the worker the engine spawned for the borrowed
// share.
type pairPanic struct {
	transforms.Transform
	calls *atomic.Int32
	both  chan struct{}
}

func newPairPanic(t transforms.Transform) pairPanic {
	return pairPanic{Transform: t, calls: new(atomic.Int32), both: make(chan struct{})}
}

func (p pairPanic) hit() {
	switch p.calls.Add(1) {
	case 1:
		select {
		case <-p.both:
		case <-time.After(5 * time.Second): // one worker: no second call comes
		}
		panic("injected chunk codec bug")
	case 2:
		close(p.both)
		panic("injected chunk codec bug")
	}
}

func (p pairPanic) ForwardInto(dst, src []byte) []byte {
	p.hit()
	return p.Transform.ForwardInto(dst, src)
}

func (p pairPanic) InverseInto(dst, src []byte, maxDecoded int) ([]byte, error) {
	p.hit()
	return p.Transform.InverseInto(dst, src, maxDecoded)
}

// TestBorrowedWorkerPanic: a chunk codec that panics on the engine
// workers of a request that borrowed answers StatusError, compress and
// decompress alike, returns every worker, and leaves the daemon serving.
func TestBorrowedWorkerPanic(t *testing.T) {
	atLeastTwoProcs(t)
	s, addr := startServer(t, Config{Concurrency: 2})
	var faulty atomic.Bool
	s.algHook = func(a *core.Algorithm) {
		if faulty.Load() {
			a.Chunked = transforms.Pipeline{newPairPanic(a.Chunked)}
		}
	}
	tc := dialTest(t, addr)
	a, err := core.New(core.DPspeed)
	if err != nil {
		t.Fatal(err)
	}
	blob := a.Compress(multiChunk, container.Params{})
	faulty.Store(true)
	for _, req := range []struct {
		op      Op
		alg     byte
		payload []byte
	}{
		{OpCompress, byte(core.DPspeed), multiChunk},
		{OpDecompress, 0, blob},
	} {
		st, msg := tc.mustRoundTrip(t, req.op, req.alg, req.payload)
		if st != StatusError || !bytes.Contains(msg, []byte("injected chunk codec bug")) {
			t.Fatalf("%v: status %v (%q), want StatusError naming the panic", req.op, st, msg)
		}
	}
	if got := s.StatsSnapshot().WorkersBorrowed; got != 2 {
		t.Errorf("workers borrowed: %d, want 2 (each failing request borrows)", got)
	}
	if n := s.busyWorkers.Load(); n != 0 {
		t.Errorf("busy workers after the panics: %d, want 0", n)
	}
	faulty.Store(false)
	if st, got := tc.mustRoundTrip(t, OpCompress, byte(core.DPspeed), multiChunk); st != StatusOK || !bytes.Equal(got, blob) {
		t.Errorf("compress after the panics: status %v, bytes equal %v", st, bytes.Equal(got, blob))
	}
}
