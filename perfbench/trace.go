package main

import (
	"fmt"
	"time"

	"fpcompress/internal/container"
	"fpcompress/internal/core"
	"fpcompress/internal/transforms"
)

// spanAcc accumulates the time and bytes spent inside chunk codec calls.
// The traced engine runs with one worker, so the calls never overlap.
type spanAcc struct {
	fwd, inv           time.Duration
	fwdBytes, invBytes int
}

// intoSpan times a fixed-pipeline chunk codec. It implements exactly the
// interfaces the wrapped container.IntoCodec does, so the engine takes the
// same path through it as through the bare codec.
type intoSpan struct {
	c   container.IntoCodec
	acc *spanAcc
}

func (w intoSpan) Forward(chunk []byte) []byte { return w.ForwardInto(nil, chunk) }

func (w intoSpan) ForwardInto(dst, chunk []byte) []byte {
	t := time.Now()
	dst = w.c.ForwardInto(dst, chunk)
	w.acc.fwd += time.Since(t)
	w.acc.fwdBytes += len(chunk)
	return dst
}

func (w intoSpan) Inverse(enc []byte) ([]byte, error) {
	return w.InverseInto(nil, enc, transforms.NoLimit)
}

func (w intoSpan) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return w.InverseInto(nil, enc, maxDecoded)
}

func (w intoSpan) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	t := time.Now()
	n := len(dst)
	dst, err := w.c.InverseInto(dst, enc, maxDecoded)
	w.acc.inv += time.Since(t)
	w.acc.invBytes += len(dst) - n
	return dst, err
}

// schemeCodec is what the Auto selector implements: a SchemeCodec that
// also bounds its scheme-less inverse.
type schemeCodec interface {
	container.SchemeCodec
	container.BudgetCodec
}

// schemeSpan times the Auto selector's per-chunk calls; like intoSpan it
// implements exactly the wrapped codec's interfaces (no IntoCodec).
type schemeSpan struct {
	c   schemeCodec
	acc *spanAcc
}

func (w schemeSpan) Forward(chunk []byte) []byte {
	enc, _ := w.ForwardSchemeInto(nil, chunk)
	return enc
}

func (w schemeSpan) ForwardSchemeInto(dst, chunk []byte) ([]byte, byte) {
	t := time.Now()
	dst, scheme := w.c.ForwardSchemeInto(dst, chunk)
	w.acc.fwd += time.Since(t)
	w.acc.fwdBytes += len(chunk)
	return dst, scheme
}

func (w schemeSpan) Inverse(enc []byte) ([]byte, error) { return w.c.Inverse(enc) }

func (w schemeSpan) InverseLimit(enc []byte, maxDecoded int) ([]byte, error) {
	return w.c.InverseLimit(enc, maxDecoded)
}

func (w schemeSpan) InverseSchemeInto(dst, enc []byte, scheme byte, maxDecoded int) ([]byte, error) {
	t := time.Now()
	n := len(dst)
	dst, err := w.c.InverseSchemeInto(dst, enc, scheme, maxDecoded)
	w.acc.inv += time.Since(t)
	w.acc.invBytes += len(dst) - n
	return dst, err
}

// wrap returns the timing wrapper matching codec's interfaces.
func wrap(codec container.Codec, acc *spanAcc) container.Codec {
	if ic, ok := codec.(container.IntoCodec); ok {
		return intoSpan{ic, acc}
	}
	if sc, ok := codec.(schemeCodec); ok {
		return schemeSpan{sc, acc}
	}
	panic(fmt.Sprintf("perfbench: no timing wrapper for %T", codec))
}

// spans is one traced operation split by layer. e2e covers the whole
// decomposed call; pre is the whole-input FCM stage (internal/core);
// engine is container.CompressAppend/DecompressAppend, of which chunk is
// spent inside the chunk codec (internal/transforms, or the selector).
type spans struct {
	e2e, pre, engine, chunk time.Duration
	chunkBytes              int
	// engineIn is the bytes the container engine checksums: the input, or
	// the FCM stage's output for DPratio.
	engineIn []byte
}

// unattributed is the traced time outside every layer span: algorithm
// construction and root-API glue.
func (s spans) unattributed() time.Duration { return s.e2e - s.pre - s.engine }

// tracer replays the root API's Compress and Decompress as their layer
// calls, with one engine worker, timing each layer. Its outputs must be
// byte-identical to the untraced API's, which the workloads check.
type tracer struct{ pre []byte }

func (t *tracer) compress(id core.ID, src []byte) ([]byte, spans, error) {
	var sp spans
	acc := &spanAcc{}
	t0 := time.Now()
	a, err := core.New(id)
	if err != nil {
		return nil, sp, err
	}
	buf := src
	if a.Pre != nil {
		tp := time.Now()
		t.pre = a.Pre.ForwardInto(t.pre[:0], src)
		sp.pre = time.Since(tp)
		buf = t.pre
	}
	te := time.Now()
	out := container.CompressAppend(nil, buf, byte(a.ID), wrap(a.ChunkCodec(), acc), container.Params{Parallelism: 1})
	sp.engine = time.Since(te)
	sp.e2e = time.Since(t0)
	sp.chunk, sp.chunkBytes, sp.engineIn = acc.fwd, acc.fwdBytes, buf
	return out, sp, nil
}

func (t *tracer) decompress(data []byte) ([]byte, spans, error) {
	var sp spans
	acc := &spanAcc{}
	t0 := time.Now()
	a, err := core.FromContainer(data)
	if err != nil {
		return nil, sp, err
	}
	p := container.Params{Parallelism: 1, MaxDecoded: -1}
	te := time.Now()
	var out []byte
	if a.Pre == nil {
		out, err = container.DecompressAppend(nil, data, wrap(a.ChunkCodec(), acc), p)
		sp.engine = time.Since(te)
	} else {
		t.pre, err = container.DecompressAppend(t.pre[:0], data, wrap(a.ChunkCodec(), acc), p)
		sp.engine = time.Since(te)
		if err == nil {
			tp := time.Now()
			out, err = a.Pre.InverseInto(nil, t.pre, transforms.NoLimit)
			sp.pre = time.Since(tp)
		}
	}
	sp.e2e = time.Since(t0)
	sp.chunk, sp.chunkBytes = acc.inv, acc.invBytes
	return out, sp, err
}

// layerSums accumulates traced spans over a run.
type layerSums struct {
	fwd, inv            spans
	nFwd, nInv          int
	untraced1w, crc     time.Duration
	parse               time.Duration
	nParse              int
	predict             time.Duration
	preAlloc, preAllocB uint64
}

func (l *layerSums) addFwd(s spans) {
	l.fwd.e2e += s.e2e
	l.fwd.pre += s.pre
	l.fwd.engine += s.engine
	l.fwd.chunk += s.chunk
	l.fwd.chunkBytes += s.chunkBytes
	l.nFwd++
}

func (l *layerSums) addInv(s spans) {
	l.inv.e2e += s.e2e
	l.inv.pre += s.pre
	l.inv.engine += s.engine
	l.inv.chunk += s.chunk
	l.inv.chunkBytes += s.chunkBytes
	l.nInv++
}

// perOp divides a total over n operations, in milliseconds.
func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

// report fills the per-layer metrics the traced spans give; workloads add
// the ones specific to them. Idle layers report 0.
func (l *layerSums) report(r *result) (unattributedFrac float64) {
	r.set("core.pre_fwd_ms", "ms", perOp(l.fwd.pre, l.nFwd))
	r.set("core.pre_inv_ms", "ms", perOp(l.inv.pre, l.nInv))
	r.set("core.pre_alloc_B_per_B", "B/B", float64(l.preAlloc)/float64(max(l.preAllocB, 1)))
	r.set("transforms.fwd_ms", "ms", perOp(l.fwd.chunk, l.nFwd))
	r.set("transforms.inv_ms", "ms", perOp(l.inv.chunk, l.nInv))
	r.set("transforms.fwd_MBps", "MB/s", mbps(l.fwd.chunkBytes, l.fwd.chunk))
	r.set("transforms.inv_MBps", "MB/s", mbps(l.inv.chunkBytes, l.inv.chunk))
	r.set("container.self_fwd_ms", "ms", perOp(l.fwd.engine-l.fwd.chunk, l.nFwd))
	r.set("container.self_inv_ms", "ms", perOp(l.inv.engine-l.inv.chunk, l.nInv))
	r.set("container.crc_est_ms", "ms", perOp(l.crc, l.nFwd))
	r.set("container.parse_us", "us", 1000*perOp(l.parse, l.nParse))
	un := l.fwd.unattributed() + l.inv.unattributed()
	r.set("fpcompress.unattributed_ms", "ms", perOp(un, l.nFwd+l.nInv))
	traced := l.fwd.e2e + l.inv.e2e
	r.set("trace.overhead_frac", "frac", float64(traced)/float64(l.untraced1w)-1)
	unattributedFrac = float64(un) / float64(traced)
	r.set("trace.unattributed_frac", "frac", unattributedFrac)
	return unattributedFrac
}
