// Command fpcd is the fpcompress compression daemon: it serves compress,
// decompress, and stats operations over the wire protocol of FORMAT.md,
// with a bounded worker pool that rejects overload (busy status) instead
// of queueing unboundedly, and drains in-flight requests on SIGTERM.
//
// Usage:
//
//	fpcd                                  # serve on 127.0.0.1:7332
//	fpcd -addr :7332 -concurrency 8       # all interfaces, 8 workers
//	fpcd -queue 32 -max-payload 16777216  # deeper queue, 16 MiB payload cap
//	fpcd -max-conns 256 -read-timeout 10s # tighter connection-level limits
//	fpcd -max-inflight-bytes 268435456    # cap buffered request bytes at 256 MiB
//	fpcd -degraded                        # serve damaged containers best-effort (partial status)
//	fpcd -debug localhost:6060            # expvar metrics at /debug/vars
//	fpcd -pprof localhost:6060            # net/http/pprof at /debug/pprof/
//
// Clients use fpcompress.Dial (see the README quickstart) or any
// implementation of the wire protocol.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ handlers on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"fpcompress/internal/server"
	"fpcompress/internal/simd"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7332", "TCP listen address")
		concurrency = flag.Int("concurrency", 0, "codec worker goroutines (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "requests queued beyond the workers before busy rejection (0 = 2x concurrency, negative = none)")
		maxPayload  = flag.Int("max-payload", 0, "largest accepted request payload in bytes (0 = 64 MiB)")
		maxResult   = flag.Int("max-result", 0, "largest decompressed output one request may allocate (0 = 64 MiB, negative = unbounded)")
		chunkSize   = flag.Int("chunk", 0, "container chunk size in bytes (0 = 16384, the paper's default)")
		codecPar    = flag.Int("codec-parallelism", 0, "container workers per request (0 = its own worker, plus for a request of at most 1 MiB the pool workers idle when it starts, while no request is queued)")
		maxConns    = flag.Int("max-conns", 0, "concurrent connection cap; excess get a busy response and a close (0 = 1024, negative = unlimited)")
		readTimeout = flag.Duration("read-timeout", 0, "how long one request's bytes may take to arrive before the slow client is disconnected (0 = 30s, negative = no limit)")
		maxInflight = flag.Int64("max-inflight-bytes", 0, "global cap on admitted-but-unanswered request payload bytes (0 = 4x max-payload, negative = unlimited)")
		degraded    = flag.Bool("degraded", false, "serve damaged containers best-effort: retry failed decompressions through the degraded decoder and answer partial-result responses with unrecoverable chunk ranges zero-filled")
		debugAddr   = flag.String("debug", "", "optional HTTP address serving expvar metrics at /debug/vars")
		pprofAddr   = flag.String("pprof", "", "optional HTTP address serving net/http/pprof profiles at /debug/pprof/")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before open connections are dropped")
		quiet       = flag.Bool("q", false, "suppress startup and shutdown messages")
	)
	flag.Parse()

	srv := server.New(server.Config{
		Concurrency:      *concurrency,
		QueueDepth:       *queue,
		MaxPayload:       *maxPayload,
		MaxResult:        *maxResult,
		ChunkSize:        *chunkSize,
		CodecParallelism: *codecPar,
		MaxConns:         *maxConns,
		ReadTimeout:      *readTimeout,
		MaxInflightBytes: *maxInflight,
		Degraded:         *degraded,
	})
	expvar.Publish("fpcd", expvar.Func(func() any { return srv.StatsSnapshot() }))
	// The dispatched transform kernel path ("scalar", "avx2", or "neon"),
	// so a fleet's /debug/vars show which code path produced its numbers.
	simdPath := expvar.NewString("fpcd.simd")
	simdPath.Set(simd.Active())
	// expvar and net/http/pprof both register on the default mux, so every
	// debug listener serves the full /debug/vars + /debug/pprof/ surface;
	// -debug and -pprof only choose where to listen. Identical addresses
	// collapse to one listener.
	for _, da := range dedupeAddrs(*debugAddr, *pprofAddr) {
		go func(addr string) {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "fpcd: debug server:", err)
			}
		}(da)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpcd:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "fpcd: listening on %s\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "fpcd:", err)
		os.Exit(1)
	case s := <-sig:
		if !*quiet {
			fmt.Fprintf(os.Stderr, "fpcd: %v, draining (budget %v)\n", s, *drain)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "fpcd: forced shutdown:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintln(os.Stderr, "fpcd: drained cleanly")
		}
	}
}

// dedupeAddrs returns the distinct non-empty addresses among its arguments,
// preserving order.
func dedupeAddrs(addrs ...string) []string {
	var out []string
	for _, a := range addrs {
		if a == "" {
			continue
		}
		dup := false
		for _, b := range out {
			if a == b {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, a)
		}
	}
	return out
}
