// Command fpcz is the command-line compressor: it compresses or
// decompresses files (or stdin/stdout) with one of the four algorithms from
// the paper.
//
// Usage:
//
//	fpcz -c -a spratio  input.f32 output.fpcz     # compress
//	fpcz -c -verify in.f32 out.fpcz               # round-trip check before commit
//	fpcz -d             output.fpcz restored.f32  # decompress
//	fpcz -c -a dpspeed < input.f64 > out.fpcz     # streams via stdin/stdout
//	fpcz -info out.fpcz                           # inspect a compressed file
//	fpcz -stats out.fpcz                          # per-chunk scheme breakdown (auto modes)
//	fpcz -c -parity 8 input.f32 out.fpcz          # self-healing container (v3, XOR parity)
//	fpcz -c -a dpratio -windowed in.f64 out.fpcz  # per-chunk FCM (v4): parallel + random access
//	fpcz -scrub out.fpcz                          # deep per-chunk integrity check
//	fpcz -repair damaged.fpcz restored.fpcz       # rewrite from salvaged + repaired chunks
//
// File output is atomic: bytes go to a same-directory temp file that is
// fsynced and renamed over the destination only on success, so an
// interrupted run never leaves a truncated output file.
//
// The algorithm is recorded in the output, so decompression needs no -a.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fpcompress"
	"fpcompress/internal/container"
	"fpcompress/internal/core"
	"fpcompress/internal/selector"
	"fpcompress/internal/simd"
)

func main() {
	var (
		compress   = flag.Bool("c", false, "compress")
		decompress = flag.Bool("d", false, "decompress")
		info       = flag.Bool("info", false, "describe a compressed file")
		stats      = flag.Bool("stats", false, "per-chunk selection breakdown of a compressed file (auto32/auto64 containers)")
		algName    = flag.String("a", "spspeed", "algorithm: spspeed|spratio|dpspeed|dpratio|spbalance|dpbalance|auto32|auto64")
		chunkSize  = flag.Int("chunk", 0, "chunk size in bytes (0 = 16384, the paper's default)")
		parallel   = flag.Int("p", 0, "worker goroutines (0 = all CPUs)")
		quiet      = flag.Bool("q", false, "suppress the statistics line")
		stream     = flag.Bool("stream", false, "framed streaming mode: constant memory, for inputs larger than RAM")
		maxDecoded = flag.Int("max-decoded", 0, "decode budget in bytes for -d and -info (0 = 64 MiB; -1 = unlimited, for trusted files only)")
		verify     = flag.Bool("verify", false, "with -c: decompress the result and byte-compare against the input before committing the output (roughly doubles runtime and holds a second copy in memory)")
		integrity  = flag.Bool("integrity", false, "with -c: write the self-healing container layout (v3): per-chunk CRC32-C values and checksummed metadata")
		parity     = flag.Int("parity", 0, "with -c: append one XOR parity chunk per N data chunks, making any single lost chunk per group repairable (implies -integrity; storage overhead ~1/N)")
		windowed   = flag.Bool("windowed", false, "with -c -a dpratio|auto64: reset the FCM predictor per chunk (container v4) — chunks compress in parallel and the output supports random access, at a small ratio cost (the default whole-input FCM spans chunks and supports neither)")
		scrub      = flag.Bool("scrub", false, "deep per-chunk integrity check of one compressed file; exit 0 clean, 12 damaged-but-repairable, 11 data lost, 10 metadata corrupt")
		repair     = flag.Bool("repair", false, "rewrite a damaged container from its intact and parity-repaired chunks: fpcz -repair in.fpcz out.fpcz")
	)
	flag.Parse()

	if *scrub || *repair {
		code, err := runIntegrity(*scrub, *repair, *maxDecoded, *parallel, *quiet, flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpcz:", err)
		}
		os.Exit(code)
	}
	if err := run(*compress, *decompress, *info, *stats, *stream, *verify, *algName, *chunkSize, *parallel, *maxDecoded, *integrity, *parity, *windowed, *quiet, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "fpcz:", err)
		os.Exit(1)
	}
}

// Exit codes for the integrity modes (-scrub, -repair), shared with
// fpcvalidate so scripts can branch on severity uniformly.
const (
	exitOK            = 0  // every chunk verified clean
	exitUsage         = 1  // usage or I/O error, nothing said about the data
	exitHeaderCorrupt = 10 // metadata unusable: nothing in the file can be located
	exitChunkCorrupt  = 11 // chunk data lost beyond repair
	exitRepairable    = 12 // damage present but fully recovered from parity
)

// runIntegrity dispatches -scrub and -repair, returning the process exit
// code (see the exit* constants).
func runIntegrity(scrub, repair bool, maxDecoded, parallel int, quiet bool, args []string) (int, error) {
	switch {
	case scrub && repair:
		return exitUsage, fmt.Errorf("-scrub and -repair are mutually exclusive (scrub first, then repair)")
	case scrub:
		if len(args) != 1 {
			return exitUsage, fmt.Errorf("-scrub needs exactly one file")
		}
		return scrubFile(args[0], maxDecoded, quiet)
	default:
		if len(args) != 2 {
			return exitUsage, fmt.Errorf("-repair needs an input and an output file")
		}
		return repairFile(args[0], args[1], maxDecoded, parallel, quiet)
	}
}

// classifyPartialErr maps a DecompressPartial failure to an exit code:
// anything that makes the metadata unusable is exitHeaderCorrupt, a
// whole-input pre-stage that cannot survive damage is data loss, and
// budget/IO problems say nothing about the file.
func classifyPartialErr(err error) int {
	switch {
	case errors.Is(err, fpcompress.ErrPartialPreStage):
		return exitChunkCorrupt
	case errors.Is(err, fpcompress.ErrDecodeBudget):
		return exitUsage
	default:
		return exitHeaderCorrupt
	}
}

// reportCode maps a completed per-chunk report to an exit code.
func reportCode(rep *fpcompress.ChunkReport) int {
	c := rep.Counts()
	switch {
	case c.Quarantined > 0 || c.Unverified > 0:
		return exitChunkCorrupt
	case c.Repaired > 0:
		return exitRepairable
	}
	return exitOK
}

// scrubFile deep-verifies one compressed file chunk by chunk and prints a
// per-chunk damage report.
func scrubFile(path string, maxDecoded int, quiet bool) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return exitUsage, err
	}
	_, rep, err := fpcompress.DecompressPartial(data, &fpcompress.Options{MaxDecodedSize: maxDecoded})
	if err != nil {
		return classifyPartialErr(err), fmt.Errorf("%s: %w", path, err)
	}
	if !quiet {
		for i, s := range rep.States {
			if s == fpcompress.ChunkOK {
				continue
			}
			lo, hi := rep.Span(i)
			fmt.Printf("%s: chunk %d [%d:%d): %v\n", path, i, lo, hi, s)
		}
	}
	fmt.Printf("%s: v%d, %s\n", path, rep.Version, rep.Summary())
	return reportCode(rep), nil
}

// repairFile decodes a damaged container (repairing from parity where it
// can) and, if every byte was recovered, rewrites a pristine container
// with the same layout parameters — chunk size, integrity tables, parity
// grouping — so the output is what an undamaged writer would have
// produced.
func repairFile(inPath, outPath string, maxDecoded, parallel int, quiet bool) (int, error) {
	data, err := os.ReadFile(inPath)
	if err != nil {
		return exitUsage, err
	}
	alg, err := fpcompress.CompressedAlgorithm(data)
	if err != nil {
		return exitHeaderCorrupt, fmt.Errorf("%s: %w", inPath, err)
	}
	dec, rep, err := fpcompress.DecompressPartial(data, &fpcompress.Options{MaxDecodedSize: maxDecoded})
	if err != nil {
		return classifyPartialErr(err), fmt.Errorf("%s: %w", inPath, err)
	}
	if code := reportCode(rep); code == exitChunkCorrupt {
		return code, fmt.Errorf("%s: cannot repair, data lost beyond parity (%s)", inPath, rep.Summary())
	}
	blob, err := fpcompress.Compress(alg, dec, &fpcompress.Options{
		ChunkSize:   rep.ChunkSize,
		Parallelism: parallel,
		Integrity:   rep.Integrity,
		Parity:      rep.ParityGroup,
		WindowedFCM: rep.Windowed,
	})
	if err != nil {
		return exitUsage, err
	}
	out, err := newAtomicOutput(outPath)
	if err != nil {
		return exitUsage, err
	}
	defer out.Abort()
	if _, err := out.Write(blob); err != nil {
		return exitUsage, err
	}
	if err := out.Commit(); err != nil {
		return exitUsage, err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "repaired %s -> %s (%s)\n", inPath, outPath, rep.Summary())
	}
	return exitOK, nil
}

func run(compress, decompress, info, stats, stream, verify bool, algName string, chunkSize, parallel, maxDecoded int, integrity bool, parity int, windowed, quiet bool, args []string) error {
	switch {
	case info:
		if len(args) != 1 {
			return fmt.Errorf("-info needs exactly one file")
		}
		return describe(args[0], maxDecoded)
	case stats:
		if len(args) != 1 {
			return fmt.Errorf("-stats needs exactly one file")
		}
		return selectionStats(args[0], maxDecoded)
	case compress == decompress:
		return fmt.Errorf("exactly one of -c or -d is required")
	case verify && !compress:
		return fmt.Errorf("-verify only applies to -c (decompression is already checksum-verified)")
	case verify && stream:
		return fmt.Errorf("-verify is not supported with -stream (the input is consumed as it is read); verify whole files instead")
	case (integrity || parity != 0) && !compress:
		return fmt.Errorf("-integrity and -parity only apply to -c (they choose the written layout)")
	case windowed && !compress:
		return fmt.Errorf("-windowed only applies to -c (decompression reads the mode from the container)")
	}

	in, out, err := openFiles(args)
	if err != nil {
		return err
	}
	// Abort is a no-op after Commit: an early error return (or a crash)
	// leaves the destination untouched instead of truncated.
	defer out.Abort()
	defer in.close()

	if stream {
		opts := &fpcompress.Options{ChunkSize: chunkSize, Parallelism: parallel, MaxDecodedSize: maxDecoded, Integrity: integrity, Parity: parity, WindowedFCM: windowed}
		start := time.Now()
		var n int64
		if compress {
			alg, err := parseAlg(algName)
			if err != nil {
				return err
			}
			w := fpcompress.NewWriter(out, alg, 0, opts)
			if n, err = io.Copy(w, in.r); err != nil {
				return err
			}
			if err := w.Close(); err != nil {
				return err
			}
		} else {
			if n, err = io.Copy(out, fpcompress.NewReader(in.r, opts)); err != nil {
				return err
			}
		}
		if !quiet {
			elapsed := time.Since(start)
			fmt.Fprintf(os.Stderr, "streamed %d bytes in %v (%.1f MB/s)\n",
				n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds()/1e6)
		}
		return out.Commit()
	}

	data, err := io.ReadAll(in.r)
	if err != nil {
		return err
	}
	opts := &fpcompress.Options{ChunkSize: chunkSize, Parallelism: parallel, MaxDecodedSize: maxDecoded, Integrity: integrity, Parity: parity, WindowedFCM: windowed}
	start := time.Now()
	var result []byte
	if compress {
		alg, err := parseAlg(algName)
		if err != nil {
			return err
		}
		result, err = fpcompress.Compress(alg, data, opts)
		if err != nil {
			return err
		}
		if verify {
			// Paranoid end-to-end self-check before any bytes are
			// committed: the container we are about to write must decode
			// back to exactly the input. The budget is the known input
			// size, so verification never allocates more than one extra
			// copy.
			back, err := fpcompress.Decompress(result, &fpcompress.Options{
				Parallelism: parallel, MaxDecodedSize: len(data) + 1,
			})
			if err != nil {
				return fmt.Errorf("verify: round-trip decode failed: %w", err)
			}
			if !bytes.Equal(back, data) {
				return fmt.Errorf("verify: round trip does not reproduce the input (%d in, %d back)", len(data), len(back))
			}
		}
	} else {
		result, err = fpcompress.Decompress(data, opts)
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	if _, err := out.Write(result); err != nil {
		return err
	}
	if !quiet {
		ratio := float64(len(result)) / float64(len(data))
		if compress {
			ratio = float64(len(data)) / float64(len(result))
		}
		verified := ""
		if verify {
			verified = ", verified"
		}
		fmt.Fprintf(os.Stderr, "%d -> %d bytes (ratio %.3f%s) in %v (%.1f MB/s)\n",
			len(data), len(result), ratio, verified, elapsed.Round(time.Millisecond),
			float64(len(data))/elapsed.Seconds()/1e6)
	}
	return out.Commit()
}

func parseAlg(name string) (fpcompress.Algorithm, error) {
	switch strings.ToLower(name) {
	case "spspeed":
		return fpcompress.SPspeed, nil
	case "spratio":
		return fpcompress.SPratio, nil
	case "dpspeed":
		return fpcompress.DPspeed, nil
	case "dpratio":
		return fpcompress.DPratio, nil
	case "spbalance":
		return fpcompress.SPbalance, nil
	case "dpbalance":
		return fpcompress.DPbalance, nil
	case "auto32":
		return fpcompress.Auto32, nil
	case "auto64":
		return fpcompress.Auto64, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

// input is the source side: a reader plus its cleanup.
type input struct {
	r io.Reader
	f *os.File // nil when reading stdin
}

func (in *input) close() {
	if in.f != nil {
		in.f.Close()
	}
}

// atomicOutput writes through a same-directory temp file and renames it
// over the destination only on Commit, after an fsync — so an
// interrupted or failed run never leaves a truncated or corrupt output
// file where the destination should be. Stdout output is passed through
// unchanged (there is nothing atomic about a pipe).
type atomicOutput struct {
	w    io.Writer
	tmp  *os.File // nil for stdout
	path string   // final destination
	done bool
}

func newAtomicOutput(path string) (*atomicOutput, error) {
	if path == "" {
		return &atomicOutput{w: os.Stdout}, nil
	}
	// The temp file must live in the destination directory: rename is
	// only atomic within one filesystem.
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	return &atomicOutput{w: tmp, tmp: tmp, path: path}, nil
}

// Write implements io.Writer.
func (a *atomicOutput) Write(p []byte) (int, error) { return a.w.Write(p) }

// Commit makes the output durable and visible: fsync, close, rename.
func (a *atomicOutput) Commit() error {
	if a.tmp == nil || a.done {
		return nil
	}
	a.done = true
	if err := a.tmp.Sync(); err != nil {
		a.tmp.Close()
		os.Remove(a.tmp.Name())
		return err
	}
	if err := a.tmp.Close(); err != nil {
		os.Remove(a.tmp.Name())
		return err
	}
	if err := os.Rename(a.tmp.Name(), a.path); err != nil {
		os.Remove(a.tmp.Name())
		return err
	}
	return nil
}

// Abort discards the temp file; a no-op after Commit or for stdout.
func (a *atomicOutput) Abort() {
	if a.tmp == nil || a.done {
		return
	}
	a.done = true
	a.tmp.Close()
	os.Remove(a.tmp.Name())
}

func openFiles(args []string) (*input, *atomicOutput, error) {
	if len(args) > 2 {
		return nil, nil, fmt.Errorf("too many arguments")
	}
	in := &input{r: os.Stdin}
	if len(args) >= 1 {
		f, err := os.Open(args[0])
		if err != nil {
			return nil, nil, err
		}
		in.r, in.f = f, f
	}
	outPath := ""
	if len(args) >= 2 {
		outPath = args[1]
	}
	out, err := newAtomicOutput(outPath)
	if err != nil {
		in.close()
		return nil, nil, err
	}
	return in, out, nil
}

// selectionStats prints the per-chunk pipeline selection breakdown of an
// auto-mode file (one with a per-chunk scheme table): chunks and stored
// bytes per scheme, and the cost model's predicted bytes next to the actual
// stored bytes for the chunks where the recorded scheme was a modeled
// candidate.
func selectionStats(path string, maxDecoded int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	h, err := container.Parse(data)
	if err != nil {
		return err
	}
	// FromContainer picks the windowed selector for v4 windowed containers,
	// so the re-run cost model prices the same candidate set (including the
	// fcm+raze+rare64 scheme) the encoder chose from.
	a, err := core.FromContainer(data)
	if err != nil {
		return err
	}
	if a.Select == nil {
		return fmt.Errorf("%s: %s containers carry no per-chunk scheme table (use -info)", path, a.Name())
	}
	// Decode (CRC-verified) to re-run the cost model on the original chunks.
	dec, err := fpcompress.Decompress(data, &fpcompress.Options{MaxDecodedSize: maxDecoded})
	if err != nil {
		return err
	}
	type row struct {
		chunks            int
		stored, predicted int
	}
	rows := map[byte]*row{}
	for i := 0; i < h.ChunkCount; i++ {
		scheme := h.ChunkScheme(i)
		r := rows[scheme]
		if r == nil {
			r = &row{}
			rows[scheme] = r
		}
		r.chunks++
		r.stored += h.ChunkStoredLen(i)
		lo := i * h.ChunkSize
		hi := min(lo+h.ChunkSize, len(dec))
		for _, p := range predictions(a, dec[lo:hi]) {
			if p.Scheme == scheme {
				r.predicted += p.Predicted
			}
		}
	}
	fmt.Printf("%s: %s, %d chunks of %d bytes, container v%d\n",
		path, a.Name(), h.ChunkCount, h.ChunkSize, h.Version)
	fmt.Printf("kernel path: %s (best available: %s)\n", simd.Active(), simd.Available())
	fmt.Printf("%-14s %8s %14s %16s\n", "scheme", "chunks", "stored bytes", "predicted bytes")
	for scheme := byte(0); int(scheme) < selector.NumSchemes; scheme++ {
		r := rows[scheme]
		if r == nil {
			continue
		}
		pred := fmt.Sprintf("%d", r.predicted)
		if scheme == selector.SchemeRaw {
			pred = "-" // raw fallback stores the chunk verbatim, unpredicted
		}
		fmt.Printf("%-14s %8d %14d %16s\n", selector.SchemeName(scheme), r.chunks, r.stored, pred)
	}
	return nil
}

// predictions re-runs the selector's cost model over one original chunk.
func predictions(a *core.Algorithm, chunk []byte) []selector.Prediction {
	preds, _ := a.Select.Predict(chunk)
	return preds
}

func describe(path string, maxDecoded int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// FromContainer resolves the windowed variants too, so -info reports
	// the stages that actually encoded the file (e.g. DPratio-w's per-chunk
	// FCM rather than the whole-input pre-stage).
	a, err := core.FromContainer(data)
	if err != nil {
		return err
	}
	dec, err := fpcompress.Decompress(data, &fpcompress.Options{MaxDecodedSize: maxDecoded})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s (%s), %d compressed bytes, %d original bytes, ratio %.3f\n",
		path, a.Name(), strings.Join(a.Stages(), " -> "), len(data), len(dec),
		float64(len(dec))/float64(len(data)))
	return nil
}
