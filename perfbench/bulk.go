package main

import (
	"bytes"
	"runtime"
	"time"

	"fpcompress"
	"fpcompress/internal/container"
	"fpcompress/internal/core"
	"fpcompress/internal/sdr"
)

// bulkSpec describes the archive workloads: whole-input compress and
// decompress of large inputs through the root API, plus ranged reads.
type bulkSpec struct {
	alg          fpcompress.Algorithm
	prec         sdr.Precision
	inputs, size int
	// reads is the number of 4 KiB ReadAt windows per input per round. A
	// block without random access (0) is read by whole decompression,
	// decodes times per input per round.
	reads, decodes int
	// coldPools empties the heap and every sync.Pool (two runtime.GC
	// calls, outside the timings) before each timed compress. DPratio's
	// chunk engine is fast when a pooled arena from an earlier call
	// survives and several times slower when it must regrow one, and
	// whether one survives depends on when the collector last ran; without
	// this the share of fast calls, and so the median, varies from run to
	// run. Every call then takes the regrow path.
	coldPools bool
}

// dp-ratio's inputs are 2 MiB: on the regrow path the cost of growing an
// arena is quadratic in the chunks per input, so at 8 MiB allocation and
// copying (about 1.4 GB per compress) made up most of the time and the
// median moved with the host's memory load by over 30% between runs.
var bulkSpecs = map[string]bulkSpec{
	"sp-archive": {alg: fpcompress.SPspeed, prec: sdr.Single, inputs: 8, size: 8 << 20, reads: 64, decodes: 1},
	"dp-ratio":   {alg: fpcompress.DPratio, prec: sdr.Double, inputs: 16, size: 2 << 20, decodes: 8, coldPools: true},
}

const (
	readWindow = 4096
	bulkSlice  = 32 << 10
)

// bulkPlan is the seeded input set: the inputs and each one's read offsets.
type bulkPlan struct {
	inputs  [][]byte
	offsets [][]int64
}

func makeBulkPlan(spec bulkSpec, seed uint64, c *corpus) *bulkPlan {
	r := newRand(seed, 1)
	p := &bulkPlan{}
	for range spec.inputs {
		in := c.input(r, spec.size, bulkSlice)
		offs := make([]int64, spec.reads)
		for j := range offs {
			offs[j] = int64(r.IntN(len(in) - readWindow + 1))
		}
		p.inputs = append(p.inputs, in)
		p.offsets = append(p.offsets, offs)
	}
	return p
}

func (p *bulkPlan) digest() string {
	var ints []int64
	for _, o := range p.offsets {
		ints = append(ints, o...)
	}
	return digestOf(p.inputs, ints)
}

type bulkState struct {
	spec bulkSpec
	plan *bulkPlan
	refs [][]byte // Compress(alg, input) at default Options, round-trip verified
	// forcedGCs and forcedPause count settle's own collections, which the
	// traced run's GC metrics leave out.
	forcedGCs   uint32
	forcedPause time.Duration
}

func setupBulk(spec bulkSpec, seed uint64, t *tally) *bulkState {
	st := &bulkState{spec: spec, plan: makeBulkPlan(spec, seed, newCorpus(spec.prec, corpusValues))}
	for i, in := range st.plan.inputs {
		ref, err := fpcompress.Compress(spec.alg, in, nil)
		if err == nil {
			var dec []byte
			dec, err = fpcompress.Decompress(ref, nil)
			t.check(err == nil && bytes.Equal(dec, in), "setup round trip of input %d: %v", i, err)
		} else {
			t.check(false, "setup compress of input %d: %v", i, err)
		}
		st.refs = append(st.refs, ref)
	}
	return st
}

func (st *bulkState) close() {}

// settle runs before each timed compress; see bulkSpec.coldPools.
func (st *bulkState) settle() {
	if st.spec.coldPools {
		mw := openMemWindow()
		runtime.GC()
		runtime.GC()
		_, gcs, pause := mw.close()
		st.forcedGCs += gcs
		st.forcedPause += pause
	}
}

var oneWorker = &fpcompress.Options{Parallelism: 1}

// run measures the end-to-end metrics: rounds over the inputs, each input
// compressed at default workers and at one worker, decompressed, and (for
// sp-archive) read in 4 KiB windows. Every output is checked.
func (st *bulkState) run(d time.Duration, t *tally, r *result) {
	alg, size := st.spec.alg, st.spec.size
	var comp, comp1, decomp, reads samples
	var moved int
	buf := make([]byte, readWindow)
	runtime.GC()
	mw := openMemWindow()
	deadline := time.Now().Add(d)
loop:
	for {
		for i, in := range st.plan.inputs {
			if len(comp) > 0 && time.Now().After(deadline) {
				break loop
			}
			ref := st.refs[i]
			st.settle()
			t0 := time.Now()
			out, err := fpcompress.Compress(alg, in, nil)
			comp = append(comp, time.Since(t0))
			t.check(err == nil && bytes.Equal(out, ref), "compress of input %d differs from reference: %v", i, err)

			st.settle()
			t0 = time.Now()
			out, err = fpcompress.Compress(alg, in, oneWorker)
			comp1 = append(comp1, time.Since(t0))
			t.check(err == nil && bytes.Equal(out, ref), "1-worker compress of input %d differs from reference: %v", i, err)

			for range st.spec.decodes {
				t0 = time.Now()
				out, err = fpcompress.Decompress(ref, nil)
				decomp = append(decomp, time.Since(t0))
				t.check(err == nil && bytes.Equal(out, in), "decompress of input %d does not round-trip: %v", i, err)
			}
			moved += (2 + st.spec.decodes) * len(in)

			if st.spec.reads == 0 {
				continue
			}
			ra, err := fpcompress.OpenRandomAccess(ref, nil)
			if !t.check(err == nil, "open random access on input %d: %v", i, err) {
				continue
			}
			for _, off := range st.plan.offsets[i] {
				t0 = time.Now()
				n, err := ra.ReadAt(buf, off)
				reads = append(reads, time.Since(t0))
				t.check(err == nil && n == readWindow && bytes.Equal(buf, in[off:off+readWindow]),
					"ReadAt(%d) on input %d: n=%d err=%v", off, i, n, err)
			}
			moved += len(st.plan.offsets[i]) * readWindow
		}
	}
	alloc, _, _ := mw.close()

	r.set("compress_MBps", "MB/s", mbps(size, comp.median()))
	r.set("compress_1w_MBps", "MB/s", mbps(size, comp1.median()))
	r.set("decompress_MBps", "MB/s", mbps(size, decomp.median()))
	r.set("ratio", "x", st.ratio())
	r.set("alloc_B_per_B", "B/B", float64(alloc)/float64(moved))
	// The request whose latency a user of the workload waits on: one 4 KiB
	// read of the archive, which takes a whole decompression when the
	// block has no random access (whole-input DPratio).
	req := reads
	if len(req) == 0 {
		req = decomp
	}
	r.set("latency_p50_us", "us", us(req.quantile(0.5)))
	r.set("latency_p90_us", "us", us(req.quantile(0.9)))
	r.set("req_per_s", "1/s", float64(len(req))/req.sum().Seconds())
}

func (st *bulkState) ratio() float64 {
	var in, out int
	for i := range st.refs {
		in += len(st.plan.inputs[i])
		out += len(st.refs[i])
	}
	return float64(in) / float64(out)
}

// runTraced measures the per-layer metrics. Each round compresses and
// decompresses every input untraced (at default and one worker) and then
// through the tracer, whose outputs must match the untraced ones byte for
// byte; the container parse, CRC and single-chunk decode are timed on the
// same blocks.
func (st *bulkState) runTraced(d time.Duration, t *tally, r *result) {
	id := core.ID(st.spec.alg)
	a, err := core.New(id)
	if err != nil {
		panic(err)
	}
	var l layerSums
	var compN, comp1 samples
	var raDecode time.Duration
	var raChunks, nReads, ops int
	tr := &tracer{}
	codec := a.ChunkCodec()

	// Pre-stage allocation, once per input, outside the timed rounds.
	if a.Pre != nil {
		var pre []byte
		for _, in := range st.plan.inputs {
			mw := openMemWindow()
			pre = a.Pre.ForwardInto(pre[:0], in)
			alloc, _, _ := mw.close()
			l.preAlloc += alloc
			l.preAllocB += uint64(len(in))
		}
	}

	runtime.GC()
	mw := openMemWindow()
	forcedGCs, forcedPause := st.forcedGCs, st.forcedPause
	deadline := time.Now().Add(d)
loop:
	for {
		for i, in := range st.plan.inputs {
			if ops > 0 && time.Now().After(deadline) {
				break loop
			}
			ref := st.refs[i]
			st.settle()
			t0 := time.Now()
			out, err := fpcompress.Compress(st.spec.alg, in, nil)
			compN = append(compN, time.Since(t0))
			t.check(err == nil && bytes.Equal(out, ref), "compress of input %d differs from reference: %v", i, err)

			st.settle()
			t0 = time.Now()
			out, err = fpcompress.Compress(st.spec.alg, in, oneWorker)
			comp1 = append(comp1, time.Since(t0))
			l.untraced1w += comp1[len(comp1)-1]
			t.check(err == nil && bytes.Equal(out, ref), "1-worker compress of input %d differs from reference: %v", i, err)

			st.settle()
			out, sp, err := tr.compress(id, in)
			l.addFwd(sp)
			t.check(err == nil && bytes.Equal(out, ref), "traced compress of input %d differs from untraced: %v", i, err)
			t0 = time.Now()
			container.ChecksumOf(sp.engineIn)
			l.crc += time.Since(t0)

			st.settle()
			t0 = time.Now()
			out, err = fpcompress.Decompress(ref, oneWorker)
			l.untraced1w += time.Since(t0)
			t.check(err == nil && bytes.Equal(out, in), "1-worker decompress of input %d does not round-trip: %v", i, err)

			st.settle()
			out, sp, err = tr.decompress(ref)
			l.addInv(sp)
			t.check(err == nil && bytes.Equal(out, in), "traced decompress of input %d does not round-trip: %v", i, err)
			ops += 5

			t0 = time.Now()
			h, err := container.Parse(ref)
			l.parse += time.Since(t0)
			l.nParse++
			if !t.check(err == nil, "parse of input %d: %v", i, err) {
				continue
			}
			cs := h.ChunkSize
			for _, off := range st.plan.offsets[i] {
				nReads++
				for ci := int(off) / cs; ci <= (int(off)+readWindow-1)/cs; ci++ {
					t0 = time.Now()
					dec, err := h.DecompressChunkLimit(ci, codec, container.DefaultMaxDecoded)
					raDecode += time.Since(t0)
					raChunks++
					lo := ci * cs
					t.check(err == nil && bytes.Equal(dec, in[lo:min(lo+cs, len(in))]),
						"chunk %d of input %d: %v", ci, i, err)
				}
			}
		}
	}
	_, gcs, pause := mw.close()
	gcs -= st.forcedGCs - forcedGCs
	pause -= st.forcedPause - forcedPause

	if l.report(r) > 0.05 {
		t.check(false, "traced layers leave %.1f%% of the traced time unattributed", 100*r.Metrics["trace.unattributed_frac"].Value)
	}
	r.set("container.speedup_Nw", "x", float64(comp1.median())/float64(compN.median()))
	r.set("container.raw_chunk_frac", "frac", rawChunkFrac(st.refs, t))
	r.set("fpcompress.ra_chunks_per_read", "count", float64(raChunks)/float64(max(nReads, 1)))
	r.set("fpcompress.ra_chunk_decode_us", "us", 1000*perOp(raDecode, raChunks))
	r.set("runtime.gc_cycles_per_op", "count", float64(gcs)/float64(ops))
	r.set("runtime.gc_pause_ms_per_op", "ms", perOp(pause, ops))
}

// rawChunkFrac is the share of chunks the container stored raw because
// their encoding did not shrink them.
func rawChunkFrac(blocks [][]byte, t *tally) float64 {
	var raw, all int
	for i, b := range blocks {
		h, err := container.Parse(b)
		if !t.check(err == nil, "parse of block %d: %v", i, err) {
			continue
		}
		for c := range h.ChunkCount {
			if _, isRaw, err := h.ChunkPayload(c); err != nil {
				t.check(false, "chunk %d of block %d: %v", c, i, err)
			} else if isRaw {
				raw++
			}
		}
		all += h.ChunkCount
	}
	return float64(raw) / float64(max(all, 1))
}
