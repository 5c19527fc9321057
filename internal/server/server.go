package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fpcompress/internal/container"
	"fpcompress/internal/core"
)

// ErrBusy is the typed overload error: the bounded admission queue was
// full, the request was rejected without being started, and the caller
// should retry with backoff. On the wire it travels as StatusBusy.
var ErrBusy = errors.New("server: busy, bounded queue full")

// ErrServerClosed is returned by Serve and ListenAndServe after Shutdown
// or Close, mirroring net/http's convention.
var ErrServerClosed = errors.New("server: closed")

// Config tunes a Server. The zero value is a sensible production default.
type Config struct {
	// Concurrency caps codec jobs executing at once (the worker pool
	// size). 0 = GOMAXPROCS.
	Concurrency int
	// QueueDepth bounds requests waiting for a worker beyond those
	// executing. A full queue rejects with StatusBusy instead of queueing
	// unboundedly, so memory under overload stays proportional to
	// Concurrency + QueueDepth. 0 = 2*Concurrency; negative = no queue
	// (admission only when a worker is free).
	QueueDepth int
	// MaxPayload bounds one request payload in bytes; larger requests are
	// rejected with StatusTooLarge. 0 = DefaultMaxPayload (64 MiB).
	MaxPayload int
	// MaxResult bounds the decompressed output one OpDecompress request may
	// allocate: a container declaring more fails with StatusError before
	// any allocation, so a single malformed request cannot OOM a worker.
	// 0 = DefaultMaxPayload (64 MiB); negative = unbounded (never expose
	// such a server to untrusted peers).
	MaxResult int
	// ChunkSize is forwarded to the container engine (0 = the paper's
	// 16 kB). It changes the compressed layout, so all servers and local
	// producers that must interoperate bit-identically should agree on it.
	ChunkSize int
	// CodecParallelism is the container engine's per-request worker count.
	// 0 = work-conserving: a request of at most 1 MiB of raw data runs on
	// its own worker plus the pool workers idle when it starts, capped at
	// GOMAXPROCS and at one worker per chunk, and borrows only while no
	// request waits in the queue; a larger request runs on one worker. A
	// request keeps what it borrowed until it finishes, even if the
	// server gets busy meanwhile, so the size cap bounds how long a wide
	// request can hold the cores that requests arriving after it need. A
	// loaded server thus runs one worker per request, because the pool
	// already provides cross-request parallelism and one huge request must
	// not monopolize every core, while a few clients get the idle cores. A
	// positive value fixes the count for every request.
	CodecParallelism int
	// IdlePoll is how often an idle connection checks for shutdown.
	// 0 = 500ms. Tests shorten it.
	IdlePoll time.Duration
	// MaxConns caps concurrently open connections. Excess connections are
	// answered with one best-effort StatusBusy response and closed, so an
	// accept flood cannot grow goroutines and read buffers without bound.
	// 0 = DefaultMaxConns; negative = unlimited.
	MaxConns int
	// ReadTimeout bounds how long one request (header and payload) may
	// take to arrive once its first byte is seen. A connection that
	// dribbles bytes slower than that — the slowloris pattern — gets a
	// best-effort StatusSlowClient response and is dropped, freeing its
	// goroutine and buffers while other connections keep serving.
	// 0 = DefaultReadTimeout; negative = no limit.
	ReadTimeout time.Duration
	// Degraded enables best-effort serving of damaged containers: when a
	// strict OpDecompress fails, the server retries through the degraded
	// decoder (per-chunk verification, parity repair, quarantine) and, if
	// anything is salvageable, answers StatusPartial with the partial data
	// — quarantined byte ranges zero-filled — instead of StatusError.
	// Off by default because partial data must be opted into, never
	// silently substituted for an error.
	Degraded bool
	// MaxInflightBytes caps the sum of request payload bytes admitted and
	// not yet executed, across all connections — a semaphore over bytes,
	// not just job count, so N slow connections cannot each hold a
	// MaxPayload buffer. Requests that would exceed it are rejected with
	// StatusBusy before their payload is buffered (the bytes are drained
	// and discarded to keep the connection framed). 0 = 4×MaxPayload;
	// negative = unlimited.
	MaxInflightBytes int64
}

const (
	// DefaultMaxConns is the connection cap when Config.MaxConns is 0.
	DefaultMaxConns = 1024
	// DefaultReadTimeout is the per-request read deadline when
	// Config.ReadTimeout is 0.
	DefaultReadTimeout = 30 * time.Second
)

func (c Config) concurrency() int {
	if c.Concurrency > 0 {
		return c.Concurrency
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	switch {
	case c.QueueDepth > 0:
		return c.QueueDepth
	case c.QueueDepth < 0:
		return 0
	}
	return 2 * c.concurrency()
}

func (c Config) maxPayload() int {
	if c.MaxPayload > 0 {
		return c.MaxPayload
	}
	return DefaultMaxPayload
}

func (c Config) maxResult() int {
	switch {
	case c.MaxResult > 0:
		return c.MaxResult
	case c.MaxResult < 0:
		return -1
	}
	return DefaultMaxPayload
}

func (c Config) idlePoll() time.Duration {
	if c.IdlePoll > 0 {
		return c.IdlePoll
	}
	return 500 * time.Millisecond
}

func (c Config) maxConns() int {
	switch {
	case c.MaxConns > 0:
		return c.MaxConns
	case c.MaxConns < 0:
		return 0 // unlimited
	}
	return DefaultMaxConns
}

func (c Config) readTimeout() time.Duration {
	switch {
	case c.ReadTimeout > 0:
		return c.ReadTimeout
	case c.ReadTimeout < 0:
		return 0 // no limit
	}
	return DefaultReadTimeout
}

func (c Config) maxInflightBytes() int64 {
	switch {
	case c.MaxInflightBytes > 0:
		return c.MaxInflightBytes
	case c.MaxInflightBytes < 0:
		return 0 // unlimited
	}
	return 4 * int64(c.maxPayload())
}

func (c Config) params(workers int) container.Params {
	return container.Params{ChunkSize: c.ChunkSize, Parallelism: workers, MaxDecoded: c.maxResult()}
}

type job struct {
	op      Op
	alg     byte
	payload []byte
	done    chan jobResult
}

type jobResult struct {
	status  Status
	payload []byte
	// buf, when non-nil, is the pooled backing store of payload. The
	// connection goroutine owns it once the worker sends the result and
	// must release() it after the response is written.
	buf *[]byte
}

// release returns the result's pooled response buffer, if any. payload is
// dead after this call.
func (r *jobResult) release() {
	if r.buf != nil {
		putPayloadBuf(r.buf)
		r.buf = nil
	}
	r.payload = nil
}

// payloadPool recycles request and response payload buffers across requests
// and connections, so the steady-state serving loop allocates nothing per
// frame. Buffers above maxPooledPayload are left to the GC: one huge
// request must not pin tens of megabytes in the pool forever.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledPayload = 8 << 20

func getPayloadBuf() *[]byte { return payloadPool.Get().(*[]byte) }

func putPayloadBuf(p *[]byte) {
	if cap(*p) <= maxPooledPayload {
		payloadPool.Put(p)
	}
}

// readPayloadInto reads n payload bytes into *bp, growing its backing array
// only when too small, and returns the filled slice (aliasing *bp).
func readPayloadInto(bp *[]byte, r io.Reader, n int) ([]byte, error) {
	b := *bp
	if cap(b) < n {
		b = make([]byte, n)
	}
	b = b[:n]
	*bp = b
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %w", ErrProtocol, err)
	}
	return b, nil
}

// Server is a concurrent compression service. Create with New, start with
// Serve or ListenAndServe, stop with Shutdown (drain) or Close (abort).
type Server struct {
	cfg     Config
	metrics metrics

	queue        chan *job
	startWorkers sync.Once
	stopWorkers  sync.Once
	workers      sync.WaitGroup
	conns        sync.WaitGroup

	// busyWorkers counts the engine workers in use: each executing job's
	// own worker plus those it borrowed (see claimWorkers).
	busyWorkers atomic.Int64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	active    map[net.Conn]struct{}
	shutdown  atomic.Bool

	// execHook, when set (tests only), runs inside a worker after the job
	// is counted in-flight and before the codec executes.
	execHook func(Op)
	// algHook, when set (tests only), runs on each job's algorithm before
	// its codec runs, so a test can swap in a faulty chunk pipeline.
	algHook func(*core.Algorithm)
}

// New builds a Server; no goroutines start until Serve.
func New(cfg Config) *Server {
	s := &Server{
		cfg:       cfg,
		queue:     make(chan *job, cfg.queueDepth()),
		listeners: make(map[net.Listener]struct{}),
		active:    make(map[net.Conn]struct{}),
	}
	s.metrics.start = time.Now()
	return s
}

// StatsSnapshot returns the server's current metrics. It is safe to call
// concurrently with serving (cmd/fpcd publishes it through expvar).
func (s *Server) StatsSnapshot() Snapshot {
	snap := s.metrics.snapshot(s.cfg.concurrency(), s.cfg.queueDepth())
	snap.MaxConns = s.cfg.maxConns()
	snap.MaxInflightBytes = s.cfg.maxInflightBytes()
	return snap
}

// tryAcquireBytes reserves n payload bytes against the global in-flight
// budget; the caller must releaseBytes the same n once the request has
// executed. The gauge atomic doubles as the semaphore, so Snapshot's
// InflightBytes is exactly the reserved total.
func (s *Server) tryAcquireBytes(n int64) bool {
	budget := s.cfg.maxInflightBytes()
	if budget <= 0 || n <= 0 {
		if n > 0 {
			s.metrics.inflightBytes.Add(n)
		}
		return true
	}
	for {
		cur := s.metrics.inflightBytes.Load()
		// cur == 0 always admits, so one request bigger than the whole
		// budget degrades to serial execution instead of starving forever.
		if cur != 0 && cur+n > budget {
			return false
		}
		if s.metrics.inflightBytes.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

func (s *Server) releaseBytes(n int64) {
	if n > 0 {
		s.metrics.inflightBytes.Add(-n)
	}
}

// ListenAndServe listens on the TCP address addr and serves until
// Shutdown/Close or a fatal accept error.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown/Close. It blocks; run it
// in a goroutine to serve in the background.
func (s *Server) Serve(ln net.Listener) error {
	if s.shutdown.Load() {
		ln.Close()
		return ErrServerClosed
	}
	s.ensureWorkers()
	s.mu.Lock()
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	maxConns := s.cfg.maxConns()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.shutdown.Load() {
				return ErrServerClosed
			}
			// Transient accept failures (EMFILE, a fault-injection layer,
			// an aborted handshake) must not kill the accept loop.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			if errors.Is(err, ErrTransientAccept) {
				continue
			}
			return err
		}
		if maxConns > 0 && s.metrics.openConns.Load() >= int64(maxConns) {
			// Typed rejection: one best-effort busy response, then close.
			// The client sees a complete, well-framed retryable response.
			s.metrics.connsRejected.Add(1)
			go func(c net.Conn) {
				c.SetWriteDeadline(time.Now().Add(2 * time.Second))
				WriteResponse(c, StatusBusy, []byte("server: connection limit reached, retry later"))
				c.Close()
			}(c)
			continue
		}
		s.metrics.openConns.Add(1)
		s.conns.Add(1)
		s.mu.Lock()
		s.active[c] = struct{}{}
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// ErrTransientAccept marks an Accept error as retryable: a Listener
// wrapper (fault injection, rate limiting) can return an error wrapping
// it and Serve keeps accepting instead of shutting down.
var ErrTransientAccept = errors.New("server: transient accept failure")

func (s *Server) ensureWorkers() {
	s.startWorkers.Do(func() {
		for i := 0; i < s.cfg.concurrency(); i++ {
			s.workers.Add(1)
			go func() {
				defer s.workers.Done()
				for j := range s.queue {
					j.done <- s.execute(j)
				}
			}()
		}
	})
}

// handleConn serves one persistent connection: a sequence of requests,
// each answered before the next is read.
func (s *Server) handleConn(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.active, c)
		s.mu.Unlock()
		s.metrics.openConns.Add(-1)
		s.conns.Done()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	poll := s.cfg.idlePoll()
	readTimeout := s.cfg.readTimeout()
	// One pooled request buffer per connection, reused for every frame. The
	// worker is done with the payload before dispatch returns (each
	// connection is serial by protocol), so reuse on the next iteration is
	// safe.
	reqBuf := getPayloadBuf()
	defer putPayloadBuf(reqBuf)
	for !s.shutdown.Load() {
		// Idle wait under a short deadline so the connection notices
		// shutdown; Peek consumes nothing, so a timeout here never splits
		// a request.
		c.SetReadDeadline(time.Now().Add(poll))
		if _, err := br.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return // clean close or fatal transport error
		}
		// The request has begun: header and payload must both arrive
		// within ReadTimeout, or the connection is a slowloris holding a
		// goroutine and buffer hostage and gets cut.
		if readTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(readTimeout))
		} else {
			c.SetReadDeadline(time.Time{})
		}
		kind, alg, n, err := readHeader(br, s.cfg.maxPayload())
		if err != nil {
			s.failRequest(c, bw, err)
			return
		}
		op := Op(kind)
		reserved := int64(0)
		if (op == OpCompress || op == OpDecompress) && n > 0 {
			if !s.tryAcquireBytes(int64(n)) {
				// Over the global byte budget: drain the payload without
				// buffering it (the connection stays framed), answer busy.
				s.metrics.bytesRejected.Add(1)
				if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
					s.failRequest(c, bw, fmt.Errorf("%w: truncated payload: %w", ErrProtocol, err))
					return
				}
				c.SetReadDeadline(time.Time{})
				if err := WriteResponse(bw, StatusBusy, []byte(ErrBusy.Error())); err != nil {
					return
				}
				if err := bw.Flush(); err != nil {
					return
				}
				continue
			}
			reserved = int64(n)
		}
		payload, err := readPayloadInto(reqBuf, br, n)
		if err != nil {
			s.releaseBytes(reserved)
			s.failRequest(c, bw, err)
			return
		}
		c.SetReadDeadline(time.Time{})
		res := s.dispatch(op, alg, payload)
		// The reservation covers execution only: release it before the
		// reply is written, so a client that reads its answer and sends
		// the next request never finds its own bytes still reserved.
		s.releaseBytes(reserved)
		err = WriteResponse(bw, res.status, res.payload)
		if err == nil {
			err = bw.Flush()
		}
		res.release()
		if err != nil {
			return
		}
	}
}

// failRequest classifies a failed request read, sends one best-effort
// typed response, and lets the caller drop the connection (after a
// framing error the stream cannot be resynchronized; after a timeout the
// peer is too slow to keep).
func (s *Server) failRequest(c net.Conn, bw *bufio.Writer, err error) {
	if !errors.Is(err, ErrProtocol) {
		return // clean close or fatal transport error: nothing to say
	}
	st := StatusBadRequest
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		st = StatusSlowClient
		s.metrics.slowClients.Add(1)
		err = fmt.Errorf("server: request body did not arrive within %v", s.cfg.readTimeout())
	case errors.Is(err, ErrTooLarge):
		st = StatusTooLarge
	case errors.Is(err, ErrVersion):
		st = StatusUnsupported
	}
	// The read deadline may already be in the past; give the farewell
	// write its own short deadline.
	c.SetWriteDeadline(time.Now().Add(2 * time.Second))
	WriteResponse(bw, st, []byte(err.Error()))
	bw.Flush()
}

// dispatch routes one request: stats inline, codec work through the
// bounded pool. It blocks until the job's result is ready (each
// connection is serial by protocol).
func (s *Server) dispatch(op Op, alg byte, payload []byte) jobResult {
	if (op == OpDecompress || op == OpStats) && alg != 0 {
		return jobResult{status: StatusBadRequest, payload: []byte(fmt.Sprintf("server: %s request with algorithm byte %d, want 0", op, alg))}
	}
	switch op {
	case OpStats:
		start := time.Now()
		b, err := json.Marshal(s.StatsSnapshot())
		if err != nil { // cannot happen for Snapshot; defensive
			s.metrics.record(OpStats, start, len(payload), 0, false)
			return jobResult{status: StatusError, payload: []byte(err.Error())}
		}
		s.metrics.record(OpStats, start, len(payload), len(b), true)
		return jobResult{status: StatusOK, payload: b}
	case OpCompress, OpDecompress:
		j := &job{op: op, alg: alg, payload: payload, done: make(chan jobResult, 1)}
		select {
		case s.queue <- j:
			return <-j.done
		default:
			s.metrics.busy.Add(1)
			return jobResult{status: StatusBusy, payload: []byte(ErrBusy.Error())}
		}
	default:
		return jobResult{status: StatusBadRequest, payload: []byte(fmt.Sprintf("server: unknown op %d", byte(op)))}
	}
}

// execute runs one codec job on a worker goroutine.
func (s *Server) execute(j *job) jobResult {
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	workers := s.claimWorkers(j)
	defer s.busyWorkers.Add(-int64(workers))
	start := time.Now()
	out, buf, status, msg := s.runCodec(j, workers)
	// StatusPartial carries result data and counts as a (degraded) success;
	// it is tallied separately in the degraded counter.
	served := status == StatusOK || status == StatusPartial
	s.metrics.record(j.op, start, len(j.payload), len(out), served)
	if !served {
		return jobResult{status: status, payload: []byte(msg)}
	}
	return jobResult{status: status, payload: out, buf: buf}
}

// borrowMaxBytes is the largest request, in raw bytes, that borrows idle
// workers. A borrowed worker is counted busy but not reserved: the pool
// goroutine it stands for keeps taking jobs, and a request that arrives
// while a wide one holds every core waits for the Go scheduler's time
// slice. A request of up to 1 MiB gives its cores back within a few
// milliseconds. On 2 vCPUs, next to two clients sending 64 KiB requests,
// one client sending 4 MiB or larger requests that borrowed raised the
// small requests' p90 by 50–90%, while 1 MiB requests did not raise it.
const borrowMaxBytes = 1 << 20

// claimWorkers counts j's engine workers as busy and returns how many its
// codec runs on: Config.CodecParallelism when positive, otherwise j's own
// worker plus the pool workers idle now (see Config.CodecParallelism). One
// compare-and-swap on busyWorkers takes them all, so two jobs starting
// together cannot borrow the same idle worker. The caller gives the count
// back when the job ends.
func (s *Server) claimWorkers(j *job) int {
	if cp := s.cfg.CodecParallelism; cp > 0 {
		s.busyWorkers.Add(int64(cp))
		return cp
	}
	want := 0
	if size, chunks := s.requestSize(j); size <= borrowMaxBytes {
		want = min(runtime.GOMAXPROCS(0), chunks) - 1
	}
	pool := s.cfg.concurrency()
	for {
		busy := s.busyWorkers.Load()
		extra := 0
		if len(s.queue) == 0 {
			extra = max(0, min(want, pool-1-int(busy)))
		}
		if s.busyWorkers.CompareAndSwap(busy, busy+1+int64(extra)) {
			if extra > 0 {
				s.metrics.borrowed.Add(uint64(extra))
			}
			return 1 + extra
		}
	}
}

// requestSize is the raw size of j's data and the number of container
// chunks its codec runs over: the payload and its chunks at the
// configured size for a compress, the container's declared length and
// count for a decompress (0 and 0 when the header does not parse; the
// codec then reports the error).
func (s *Server) requestSize(j *job) (size, chunks int) {
	if j.op == OpDecompress {
		size, chunks, _ = container.DeclaredSize(j.payload)
		return size, chunks
	}
	cs := s.cfg.ChunkSize
	if cs <= 0 {
		cs = container.DefaultChunkSize
	}
	return len(j.payload), (len(j.payload) + cs - 1) / cs
}

// runCodec executes the codec for one job on the given number of engine
// workers, building the response payload in a pooled buffer (returned as
// buf; ownership travels with the jobResult to the connection goroutine).
// The decoders guarantee "arbitrary bytes in, error out"; the recover is
// the last-line backstop enforcing that a codec bug surfaces as a typed
// StatusError response on one request instead of killing the whole
// daemon.
func (s *Server) runCodec(j *job, workers int) (out []byte, buf *[]byte, status Status, msg string) {
	op := j.op
	p := s.cfg.params(workers)
	defer func() {
		if r := recover(); r != nil {
			// A pooled buffer taken before the panic is abandoned to the GC:
			// after a codec panic its contents are suspect.
			out, buf, status, msg = nil, nil, StatusError, fmt.Sprintf("server: codec panic on %v: %v", op, r)
		}
	}()
	// The test hook runs inside the recover scope so injected panics
	// exercise the same backstop a real codec bug would hit.
	if s.execHook != nil {
		s.execHook(j.op)
	}
	status = StatusOK
	switch j.op {
	case OpCompress:
		a, err := core.New(core.ID(j.alg))
		if err != nil {
			status, msg = StatusBadRequest, err.Error()
			break
		}
		if s.algHook != nil {
			s.algHook(a)
		}
		buf = getPayloadBuf()
		*buf = a.CompressAppend((*buf)[:0], j.payload, p)
		out = *buf
	case OpDecompress:
		a, err := core.FromContainer(j.payload)
		if err != nil {
			status, msg = StatusBadRequest, err.Error()
			break
		}
		if s.algHook != nil {
			s.algHook(a)
		}
		buf = getPayloadBuf()
		res, err := a.DecompressAppend((*buf)[:0], j.payload, p)
		if err != nil && s.cfg.Degraded {
			// Strict decode refused the container; salvage what verifies and
			// answer StatusPartial so the client knows the data is incomplete
			// (quarantined ranges zero-filled).
			res, _, err = a.DecompressPartialAppend((*buf)[:0], j.payload, p)
			if err == nil {
				status = StatusPartial
				s.metrics.degraded.Add(1)
			}
		}
		if err != nil {
			putPayloadBuf(buf)
			buf, status, msg = nil, StatusError, err.Error()
			break
		}
		*buf = res
		out = res
	}
	return out, buf, status, msg
}

// Shutdown gracefully stops the server: listeners close immediately, idle
// connections close within one IdlePoll, and in-flight requests run to
// completion. If ctx expires first, remaining connections are closed
// forcibly and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdown.Store(true)
	s.mu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.conns.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		s.haltWorkers()
		return nil
	case <-ctx.Done():
		// Force-close the stragglers and return without waiting for their
		// in-flight codec jobs; the pool is reaped in the background once
		// the last handler notices its dead connection (net/http
		// semantics: Shutdown honors the deadline, cleanup is async).
		s.mu.Lock()
		for c := range s.active {
			c.Close()
		}
		s.mu.Unlock()
		go func() {
			<-drained
			s.haltWorkers()
		}()
		return ctx.Err()
	}
}

// Close aborts the server: listeners and all connections close
// immediately, without draining.
func (s *Server) Close() error {
	s.shutdown.Store(true)
	s.mu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	for c := range s.active {
		c.Close()
	}
	s.mu.Unlock()
	s.conns.Wait()
	s.haltWorkers()
	return nil
}

// haltWorkers is called only after every connection handler has exited,
// so nothing can enqueue into the closed channel.
func (s *Server) haltWorkers() {
	s.stopWorkers.Do(func() { close(s.queue) })
	s.workers.Wait()
}
