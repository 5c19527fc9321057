package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"fpcompress"
	"fpcompress/internal/container"
	"fpcompress/internal/core"
	"fpcompress/internal/sdr"
	"fpcompress/internal/selector"
	"fpcompress/internal/server"
)

const (
	serveRequests = 96
	// serveClients is one connection: with two, the clients' own work and
	// the server's two workers oversubscribe a 2-core host, and the tail
	// latency then tracks the host's load more than the code.
	serveClients = 1
	serveSlice   = 64 << 10
)

// serveSizes are 24 payload sizes, evenly spaced in log scale from 64 KiB
// to 1 MiB and multiples of 8 bytes. A few discrete sizes would give the
// latency distribution steps, and a percentile sitting on a step jumps
// between runs.
var serveSizes = func() []int {
	sizes := make([]int, 24)
	for i := range sizes {
		sizes[i] = int(float64(64<<10)*math.Pow(16, float64(i)/float64(len(sizes)-1))) &^ 7
	}
	return sizes
}()

// request is one fpcd call of the serve-auto plan. A compress request
// sends raw and must get block back; a decompress request sends block and
// must get raw back. block is the in-process Compress of raw at default
// Options, which the server (one codec worker per request) must reproduce
// byte for byte.
type request struct {
	compress bool
	alg      fpcompress.Algorithm
	raw      []byte
	block    []byte
}

// makeServePlan draws every combination of operation, precision and size
// exactly once, in a seeded order with seeded payloads: the seed changes
// which bytes are sent and when, but not the mix, so latency percentiles
// stay comparable across seeds.
func makeServePlan(seed uint64, sp, dp *corpus) []request {
	r := newRand(seed, 2)
	reqs := make([]request, serveRequests)
	for i, j := range r.Perm(serveRequests) {
		q := &reqs[i]
		q.compress = j%2 == 0
		c := sp
		q.alg = fpcompress.Auto32
		if j/2%2 == 1 {
			c, q.alg = dp, fpcompress.Auto64
		}
		q.raw = c.input(r, serveSizes[j/4], serveSlice)
	}
	return reqs
}

func servePlanDigest(reqs []request) string {
	var parts [][]byte
	var ints []int64
	for _, q := range reqs {
		parts = append(parts, q.raw)
		c := int64(0)
		if q.compress {
			c = 1
		}
		ints = append(ints, c, int64(q.alg))
	}
	return digestOf(parts, ints)
}

type serveState struct {
	reqs    []request
	srv     *server.Server
	served  chan error
	clients [serveClients]*fpcompress.Client
	sel     map[fpcompress.Algorithm]*selector.Selector
}

// setupServe generates the request plan and its reference blocks, starts
// an in-process fpcd (server.New(server.Config{})) on loopback, dials the
// clients (no retries: a busy rejection is a failure) and warms them up.
func setupServe(seed uint64, t *tally) (*serveState, error) {
	st := &serveState{
		reqs: makeServePlan(seed, newCorpus(sdr.Single, corpusValues), newCorpus(sdr.Double, corpusValues)),
		sel:  map[fpcompress.Algorithm]*selector.Selector{},
	}
	for i := range st.reqs {
		q := &st.reqs[i]
		var err error
		q.block, err = fpcompress.Compress(q.alg, q.raw, nil)
		if err == nil {
			var dec []byte
			dec, err = fpcompress.Decompress(q.block, nil)
			t.check(err == nil && bytes.Equal(dec, q.raw), "setup round trip of request %d: %v", i, err)
		} else {
			t.check(false, "setup compress of request %d: %v", i, err)
		}
	}
	for _, alg := range []fpcompress.Algorithm{fpcompress.Auto32, fpcompress.Auto64} {
		a, err := core.New(alg)
		if err != nil {
			return nil, err
		}
		st.sel[alg] = a.Select
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = server.New(server.Config{})
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	for k := range st.clients {
		st.clients[k], err = fpcompress.Dial(ln.Addr().String(), &fpcompress.ClientOptions{MaxRetries: -1})
		if err != nil {
			st.close()
			return nil, err
		}
	}
	for k := range st.clients {
		for j := range 2 {
			_, ok, err := st.do(k, k*2+j)
			t.check(ok, "warm-up request on client %d: %v", k, err)
		}
	}
	return st, nil
}

// close stops the clients and the server and waits for Serve to return.
func (st *serveState) close() {
	for _, c := range st.clients {
		if c != nil {
			c.Close()
		}
	}
	if st.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.srv.Shutdown(ctx)
	<-st.served
}

// do sends request i on client k and checks the response.
func (st *serveState) do(k, i int) (time.Duration, bool, error) {
	q := &st.reqs[i]
	c := st.clients[k]
	t0 := time.Now()
	if q.compress {
		out, err := c.Compress(q.alg, q.raw)
		return time.Since(t0), err == nil && bytes.Equal(out, q.block), err
	}
	out, err := c.Decompress(q.block)
	return time.Since(t0), err == nil && bytes.Equal(out, q.raw), err
}

type served struct {
	lat time.Duration
	req int
	ok  bool
	err error
}

// serve runs the closed loop: each client sends its next request as soon
// as the previous reply arrives, walking the plan from its own offset.
func (st *serveState) serve(d time.Duration, t *tally) ([]served, time.Duration) {
	var wg sync.WaitGroup
	logs := make([][]served, serveClients)
	start := time.Now()
	deadline := start.Add(d)
	for k := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := k * len(st.reqs) / serveClients; time.Now().Before(deadline); j++ {
				i := j % len(st.reqs)
				lat, ok, err := st.do(k, i)
				logs[k] = append(logs[k], served{lat, i, ok, err})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []served
	for _, l := range logs {
		for _, s := range l {
			t.check(s.ok, "request %d (%s): %v", s.req, st.describe(s.req), s.err)
		}
		all = append(all, l...)
	}
	return all, wall
}

func (st *serveState) describe(i int) string {
	q := st.reqs[i]
	op := "decompress"
	if q.compress {
		op = "compress"
	}
	return fmt.Sprintf("%s %s %d B", op, q.alg, len(q.raw))
}

func (st *serveState) run(d time.Duration, t *tally, r *result) {
	runtime.GC()
	mw := openMemWindow()
	log, wall := st.serve(d*7/10, t)
	alloc, _, _ := mw.close()

	// Throughputs are bytes over summed latency per operation kind: the
	// plan mixes three payload sizes, whose per-request rates differ too
	// much for a median of rates to be steady.
	var lat samples
	var cBytes, dBytes int
	var cTime, dTime time.Duration
	for _, s := range log {
		q := st.reqs[s.req]
		lat = append(lat, s.lat)
		if q.compress {
			cBytes += len(q.raw)
			cTime += s.lat
		} else {
			dBytes += len(q.raw)
			dTime += s.lat
		}
	}
	// The single-worker baseline: the plan's compress requests in-process.
	var c1Bytes int
	var c1Time time.Duration
	deadline := time.Now().Add(d * 3 / 10)
	for j := 0; c1Bytes == 0 || time.Now().Before(deadline); j++ {
		q := &st.reqs[j%len(st.reqs)]
		if !q.compress {
			continue
		}
		t0 := time.Now()
		out, err := fpcompress.Compress(q.alg, q.raw, oneWorker)
		c1Time += time.Since(t0)
		c1Bytes += len(q.raw)
		t.check(err == nil && bytes.Equal(out, q.block), "1-worker compress of request %d differs: %v", j%len(st.reqs), err)
	}

	r.set("compress_MBps", "MB/s", mbps(cBytes, cTime))
	r.set("compress_1w_MBps", "MB/s", mbps(c1Bytes, c1Time))
	r.set("decompress_MBps", "MB/s", mbps(dBytes, dTime))
	r.set("ratio", "x", st.ratio())
	r.set("alloc_B_per_B", "B/B", float64(alloc)/float64(cBytes+dBytes))
	r.set("latency_p50_us", "us", us(lat.quantile(0.5)))
	r.set("latency_p90_us", "us", us(lat.quantile(0.9)))
	r.set("req_per_s", "1/s", float64(len(lat))/wall.Seconds())
}

func (st *serveState) ratio() float64 {
	var in, out int
	for _, q := range st.reqs {
		in += len(q.raw)
		out += len(q.block)
	}
	return float64(in) / float64(out)
}

// execSum is the server's total execution time and request count over
// compress and decompress, from its stats snapshot.
func execSum(s server.Snapshot) (float64, uint64) {
	var sum float64
	var n uint64
	for _, op := range []string{"compress", "decompress"} {
		o := s.Ops[op]
		sum += o.AvgLatencyUs * float64(o.Requests)
		n += o.Requests
	}
	return sum, n
}

// runTraced measures the per-layer metrics: half the time serving (server
// execution time against client latency), half replaying the plan
// in-process, untraced at one worker and through the tracer.
func (st *serveState) runTraced(d time.Duration, t *tally, r *result) {
	before := st.srv.StatsSnapshot()
	runtime.GC()
	mw := openMemWindow()
	log, _ := st.serve(d/2, t)
	_, gcs, pause := mw.close()
	after := st.srv.StatsSnapshot()
	s0, n0 := execSum(before)
	s1, n1 := execSum(after)
	exec := (s1 - s0) / float64(max(n1-n0, 1))
	var clientSum time.Duration
	for _, s := range log {
		clientSum += s.lat
	}
	r.set("server.exec_us", "us", exec)
	r.set("server.outside_exec_us", "us", us(clientSum)/float64(len(log))-exec)
	r.set("server.busy_rejections", "count", float64(after.BusyRejections-before.BusyRejections))
	r.set("runtime.gc_cycles_per_op", "count", float64(gcs)/float64(len(log)))
	r.set("runtime.gc_pause_ms_per_op", "ms", perOp(pause, len(log)))

	var l layerSums
	var cBytes int
	var compN, comp1 time.Duration
	tr := &tracer{}
	var tried, kept uint64
	perScheme := map[string]uint64{}
	deadline := time.Now().Add(d / 2)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for i := range st.reqs {
			q := &st.reqs[i]
			t0 := time.Now()
			var out []byte
			var err error
			if q.compress {
				out, err = fpcompress.Compress(q.alg, q.raw, oneWorker)
				l.untraced1w += time.Since(t0)
				comp1 += time.Since(t0)
				cBytes += len(q.raw)
				t.check(err == nil && bytes.Equal(out, q.block), "1-worker compress of request %d differs: %v", i, err)

				t0 = time.Now()
				out, err = fpcompress.Compress(q.alg, q.raw, nil)
				compN += time.Since(t0)
				t.check(err == nil && bytes.Equal(out, q.block), "compress of request %d differs: %v", i, err)

				c0 := selector.Counters()
				out, sp, err := tr.compress(core.ID(q.alg), q.raw)
				c1 := selector.Counters()
				l.addFwd(sp)
				t.check(err == nil && bytes.Equal(out, q.block), "traced compress of request %d differs from untraced: %v", i, err)
				if round == 0 {
					tried += c1.ReencodeTried - c0.ReencodeTried
					kept += c1.ReencodeKept - c0.ReencodeKept
					for name, n := range c1.PerScheme {
						perScheme[name] += n - c0.PerScheme[name]
					}
				}
				t0 = time.Now()
				container.ChecksumOf(sp.engineIn)
				l.crc += time.Since(t0)
				sel := st.sel[q.alg]
				t0 = time.Now()
				for lo := 0; lo < len(q.raw); lo += container.DefaultChunkSize {
					sel.Predict(q.raw[lo:min(lo+container.DefaultChunkSize, len(q.raw))])
				}
				l.predict += time.Since(t0)
			} else {
				out, err = fpcompress.Decompress(q.block, oneWorker)
				l.untraced1w += time.Since(t0)
				t.check(err == nil && bytes.Equal(out, q.raw), "1-worker decompress of request %d differs: %v", i, err)

				out, sp, err := tr.decompress(q.block)
				l.addInv(sp)
				t.check(err == nil && bytes.Equal(out, q.raw), "traced decompress of request %d differs: %v", i, err)
			}
			t0 = time.Now()
			_, err = container.Parse(q.block)
			l.parse += time.Since(t0)
			l.nParse++
			t.check(err == nil, "parse of request %d: %v", i, err)
		}
	}
	if l.report(r) > 0.05 {
		t.check(false, "traced layers leave %.1f%% of the traced time unattributed", 100*r.Metrics["trace.unattributed_frac"].Value)
	}
	r.set("server.codec_us", "us", 1000*perOp(l.untraced1w, l.nFwd+l.nInv))
	r.set("selector.predict_ms", "ms", perOp(l.predict, l.nFwd))
	r.set("selector.encode_ms", "ms", perOp(l.fwd.chunk-l.predict, l.nFwd))
	r.set("selector.reencode_tried", "count", float64(tried))
	r.set("selector.reencode_kept_frac", "frac", float64(kept)/float64(max(tried, 1)))
	for name, n := range perScheme {
		r.set("selector.chunks."+strings.NewReplacer("+", "_").Replace(name), "count", float64(n))
	}
	r.set("container.speedup_Nw", "x", mbps(cBytes, compN)/mbps(cBytes, comp1))
	blocks := make([][]byte, len(st.reqs))
	for i, q := range st.reqs {
		blocks[i] = q.block
	}
	r.set("container.raw_chunk_frac", "frac", rawChunkFrac(blocks, t))
}
