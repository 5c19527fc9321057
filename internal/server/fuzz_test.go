package server

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	"fpcompress/internal/core"
)

// fuzzMaxPayload is the payload cap the wire fuzzers read under: small,
// so that the fuzzer reaches lengths on both sides of it cheaply.
const fuzzMaxPayload = 4096

// fuzzErrSlack covers what a refused frame allocates for its error value.
const fuzzErrSlack = 1024

// addFrameSeeds seeds a wire fuzzer with well-formed frames and with the
// hostile ones the server tests send: bad magic, another version, a
// nonzero reserved byte, an algorithm byte on a decompress or stats
// request, lengths past the cap, truncations, and a container declaring
// a 1 TiB output.
func addFrameSeeds(f *testing.F) {
	frame := func(kind, alg byte, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeMessage(&b, kind, alg, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	huge := []byte{'F', 'P', 'C', 'Z', 1, byte(core.SPspeed), 0, 0, 0, 0}
	huge = appendUvarint(huge, 1<<40)
	huge = appendUvarint(huge, 1<<40)
	huge = appendUvarint(huge, 1)
	huge = appendUvarint(huge, 4<<1|1)
	huge = append(huge, 1, 2, 3, 4)

	ok := frame(byte(OpCompress), byte(core.SPspeed), []byte{1, 2, 3})
	version := bytes.Clone(ok)
	version[4] = ProtocolVersion + 1
	reserved := bytes.Clone(ok)
	reserved[7] = 1
	over := frame(byte(OpCompress), byte(core.SPspeed), nil)
	over[8], over[9] = 0x01, 0x10 // fuzzMaxPayload+1 bytes
	maxLen := frame(byte(OpDecompress), 0, nil)
	copy(maxLen[8:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	for _, seed := range [][]byte{
		nil,
		ok,
		frame(byte(OpStats), 0, nil),
		frame(byte(OpStats), byte(core.SPspeed), nil),
		frame(byte(OpDecompress), byte(core.SPspeed), []byte("FPCZ")),
		frame(byte(StatusTooLarge), 0, []byte("payload too large")),
		frame(byte(OpDecompress), 0, huge),
		frame(byte(OpDecompress), 0, []byte("FPCZ\x01\x01 garbage")),
		frame(byte(OpCompress), byte(core.SPspeed), make([]byte, fuzzMaxPayload)),
		bytes.Repeat([]byte{0xAB}, HeaderSize),
		version,
		reserved,
		over,
		maxLen,
		ok[:5],
		ok[:len(ok)-1],
	} {
		f.Add(seed)
	}
}

// checkFrame runs read over data and checks its outcome: a typed error
// (ErrProtocol, or io.EOF for no bytes at all), or a frame within the cap
// whose bytes, framed again, are the input's first bytes. The read must
// allocate no more than the cap and the header, plus an error value.
func checkFrame(t *testing.T, data []byte, read func(r io.Reader) (kind, alg byte, payload []byte, err error)) {
	// The fewest bytes over three reads: the fuzzing engine's own
	// goroutines allocate now and then, an over-allocating read every time.
	var kind, alg byte
	var payload []byte
	var err error
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		kind, alg, payload, err = read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > fuzzMaxPayload+HeaderSize+fuzzErrSlack {
		t.Fatalf("read of %d bytes allocated %d bytes, cap %d", len(data), least, fuzzMaxPayload)
	}
	if err != nil {
		if !errors.Is(err, ErrProtocol) && !(err == io.EOF && len(data) == 0) {
			t.Fatalf("untyped error %v", err)
		}
		return
	}
	if len(payload) > fuzzMaxPayload {
		t.Fatalf("%d-byte payload, cap %d", len(payload), fuzzMaxPayload)
	}
	var b bytes.Buffer
	if err := writeMessage(&b, kind, alg, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:min(len(data), b.Len())], b.Bytes()) {
		t.Fatalf("frame read as kind %d, alg %d, %d payload bytes differs from its input", kind, alg, len(payload))
	}
}

// FuzzReadRequest: arbitrary bytes read as a request give a typed error
// or a frame within the cap, never a panic or an allocation past the cap.
func FuzzReadRequest(f *testing.F) {
	addFrameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrame(t, data, func(r io.Reader) (byte, byte, []byte, error) {
			op, alg, payload, err := ReadRequest(r, fuzzMaxPayload)
			return byte(op), alg, payload, err
		})
	})
}

// FuzzReadResponse is FuzzReadRequest for responses. ReadResponse does
// not return the algorithm byte: it refuses any but 0, so a frame it
// accepts, framed again with 0, must be its input.
func FuzzReadResponse(f *testing.F) {
	addFrameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrame(t, data, func(r io.Reader) (byte, byte, []byte, error) {
			st, payload, err := ReadResponse(r, fuzzMaxPayload)
			return byte(st), 0, payload, err
		})
	})
}
