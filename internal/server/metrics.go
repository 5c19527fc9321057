package server

import (
	"math/bits"
	"sync/atomic"
	"time"

	"fpcompress/internal/container"
	"fpcompress/internal/selector"
)

// Metrics are the server's per-operation counters and latency histograms.
// Everything is lock-free atomics so the hot path never serializes on a
// stats mutex; Snapshot reads are consequently only approximately
// consistent, which is fine for observability.

// histBuckets is the number of power-of-two latency buckets. Bucket b
// counts observations whose microsecond count has bit length b, i.e.
// latencies in [2^(b-1), 2^b) µs; bucket 33 tops out above 2.3 hours.
const histBuckets = 34

type histogram struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
	sumUs  atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	b := bits.Len64(us)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.counts[b].Add(1)
	h.total.Add(1)
	h.sumUs.Add(us)
}

// snapshot copies the bucket counts (each read is atomic; the set is not,
// which is acceptable for monitoring).
func (h *histogram) snapshot() (counts [histBuckets]uint64, total, sumUs uint64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.total.Load(), h.sumUs.Load()
}

// quantileUs returns an upper bound in microseconds for the q-th latency
// quantile (q in [0,1]) of a snapshotted histogram.
func quantileUs(counts [histBuckets]uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	target := uint64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen uint64
	for b, c := range counts {
		seen += c
		if seen >= target {
			// Upper edge of bucket b; bucket 0 holds sub-microsecond
			// observations, reported as 1 µs.
			if b == 0 {
				return 1
			}
			return uint64(1) << uint(b)
		}
	}
	return uint64(1) << uint(histBuckets)
}

type opMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
	lat      histogram
}

// metrics aggregates everything the stats op reports. Indexed by Op.
type metrics struct {
	start         time.Time
	busy          atomic.Uint64
	inflight      atomic.Int64
	openConns     atomic.Int64  // currently accepted connections
	connsRejected atomic.Uint64 // connections refused at the MaxConns cap
	slowClients   atomic.Uint64 // connections dropped by the read timeout
	inflightBytes atomic.Int64  // payload bytes admitted and not yet executed
	bytesRejected atomic.Uint64 // requests refused by the in-flight byte budget
	degraded      atomic.Uint64 // StatusPartial responses served in degraded mode
	borrowed      atomic.Uint64 // idle pool workers lent to running requests
	ops           [4]opMetrics  // index 0 unused; 1..3 = compress, decompress, stats
}

func (m *metrics) record(op Op, start time.Time, bytesIn, bytesOut int, ok bool) {
	if op < 1 || int(op) >= len(m.ops) {
		return
	}
	om := &m.ops[op]
	om.requests.Add(1)
	om.bytesIn.Add(uint64(bytesIn))
	om.bytesOut.Add(uint64(bytesOut))
	if !ok {
		om.errors.Add(1)
	}
	om.lat.observe(time.Since(start))
}

// OpSnapshot reports one operation's counters and latency distribution.
// Latency quantiles are upper bounds from power-of-two buckets.
type OpSnapshot struct {
	Requests     uint64  `json:"requests"`
	Errors       uint64  `json:"errors"`
	BytesIn      uint64  `json:"bytes_in"`
	BytesOut     uint64  `json:"bytes_out"`
	AvgLatencyUs float64 `json:"avg_latency_us"`
	P50Us        uint64  `json:"p50_us"`
	P90Us        uint64  `json:"p90_us"`
	P99Us        uint64  `json:"p99_us"`
}

// Snapshot is the stats op's JSON payload: a point-in-time view of the
// server's counters since start.
type Snapshot struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Concurrency    int     `json:"concurrency"`
	QueueDepth     int     `json:"queue_depth"`
	Inflight       int64   `json:"inflight"`
	BusyRejections uint64  `json:"busy_rejections"`
	// Connection-level resilience gauges.
	OpenConns             int64                 `json:"open_conns"`
	MaxConns              int                   `json:"max_conns"`
	ConnLimitRejections   uint64                `json:"conn_limit_rejections"`
	SlowClientDisconnects uint64                `json:"slow_client_disconnects"`
	InflightBytes         int64                 `json:"inflight_bytes"`
	MaxInflightBytes      int64                 `json:"max_inflight_bytes"`
	ByteBudgetRejections  uint64                `json:"byte_budget_rejections"`
	Ops                   map[string]OpSnapshot `json:"ops"`
	// Auto-mode per-chunk selection counters (process-wide, from
	// internal/selector): scheme name -> chunks encoded with that scheme,
	// plus escape-hatch re-encode activity. Empty until an Auto32/Auto64
	// request is served.
	AutoSelection     map[string]uint64 `json:"auto_selection,omitempty"`
	AutoReencodeTried uint64            `json:"auto_reencode_tried"`
	AutoReencodeKept  uint64            `json:"auto_reencode_kept"`
	// Self-healing container activity: StatusPartial responses served by
	// this server, plus the process-wide chunk integrity counters from
	// internal/container (verified against stored CRCs, reconstructed from
	// parity, lost beyond repair).
	DegradedResponses uint64 `json:"degraded_responses"`
	ChunksVerified    uint64 `json:"chunks_verified"`
	ChunksRepaired    uint64 `json:"chunks_repaired"`
	ChunksQuarantined uint64 `json:"chunks_quarantined"`
	// WorkersBorrowed counts the idle pool workers requests have borrowed
	// to run their codec wider (Config.CodecParallelism 0). It stays 0 on
	// a server that never had an idle worker to lend.
	WorkersBorrowed uint64 `json:"workers_borrowed"`
}

func (m *metrics) snapshot(concurrency, queueDepth int) Snapshot {
	s := Snapshot{
		UptimeSeconds:         time.Since(m.start).Seconds(),
		Concurrency:           concurrency,
		QueueDepth:            queueDepth,
		Inflight:              m.inflight.Load(),
		BusyRejections:        m.busy.Load(),
		OpenConns:             m.openConns.Load(),
		ConnLimitRejections:   m.connsRejected.Load(),
		SlowClientDisconnects: m.slowClients.Load(),
		InflightBytes:         m.inflightBytes.Load(),
		ByteBudgetRejections:  m.bytesRejected.Load(),
		Ops:                   make(map[string]OpSnapshot, 3),
	}
	for _, op := range []Op{OpCompress, OpDecompress, OpStats} {
		om := &m.ops[op]
		counts, total, sumUs := om.lat.snapshot()
		os := OpSnapshot{
			Requests: om.requests.Load(),
			Errors:   om.errors.Load(),
			BytesIn:  om.bytesIn.Load(),
			BytesOut: om.bytesOut.Load(),
			P50Us:    quantileUs(counts, total, 0.50),
			P90Us:    quantileUs(counts, total, 0.90),
			P99Us:    quantileUs(counts, total, 0.99),
		}
		if total > 0 {
			os.AvgLatencyUs = float64(sumUs) / float64(total)
		}
		s.Ops[op.String()] = os
	}
	sel := selector.Counters()
	if len(sel.PerScheme) > 0 {
		s.AutoSelection = sel.PerScheme
	}
	s.AutoReencodeTried = sel.ReencodeTried
	s.AutoReencodeKept = sel.ReencodeKept
	rc := container.Counters()
	s.DegradedResponses = m.degraded.Load()
	s.ChunksVerified = rc.Verified
	s.ChunksRepaired = rc.Repaired
	s.ChunksQuarantined = rc.Quarantined
	s.WorkersBorrowed = m.borrowed.Load()
	return s
}
