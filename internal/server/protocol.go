// Package server implements fpcd, the concurrent compression service: a
// length-prefixed binary wire protocol over TCP, a bounded worker pool
// with explicit backpressure (StatusBusy instead of unbounded queueing),
// per-operation counters and latency histograms, and a drain-on-shutdown
// path for SIGTERM.
//
// The protocol is symmetric and deliberately minimal: every message —
// request or response — is a fixed 12-byte header followed by a payload
// (see FORMAT.md, "fpcd wire protocol"). A compress round trip through the
// server is bit-identical to calling the local Compress API, so clients
// and files are interchangeable between the two paths.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

const (
	// HeaderSize is the fixed length of every message header.
	HeaderSize = 12
	// ProtocolVersion is bumped on incompatible wire changes.
	ProtocolVersion = 1
	// DefaultMaxPayload bounds a single message payload unless the reader
	// overrides it. It caps what a malformed or hostile peer can make the
	// other side allocate from a 4-byte length field.
	DefaultMaxPayload = 64 << 20
)

// magic distinguishes fpcd traffic from stray connections. It differs from
// the container magic ("FPCZ") on purpose: a container is not a message.
var magic = [4]byte{'F', 'P', 'C', 'D'}

// Op is the requested operation.
type Op byte

const (
	// OpCompress compresses the raw payload bytes with the algorithm named
	// in the header; the response payload is one container.
	OpCompress Op = 1
	// OpDecompress decodes the container in the payload; the response
	// payload is the raw original bytes.
	OpDecompress Op = 2
	// OpStats returns a JSON metrics snapshot. It is answered inline,
	// bypassing the worker pool, so a saturated server stays observable.
	OpStats Op = 3
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case OpCompress:
		return "compress"
	case OpDecompress:
		return "decompress"
	case OpStats:
		return "stats"
	}
	return fmt.Sprintf("op(%d)", byte(op))
}

// Status is the response disposition. Any status other than StatusOK
// carries a UTF-8 error message as its payload.
type Status byte

const (
	// StatusOK carries the operation's result payload.
	StatusOK Status = 0
	// StatusBusy reports that the bounded admission queue was full; the
	// request was not started and can safely be retried after backoff.
	StatusBusy Status = 1
	// StatusBadRequest reports a malformed header, unknown op, or unknown
	// algorithm id.
	StatusBadRequest Status = 2
	// StatusUnsupported reports a protocol version mismatch.
	StatusUnsupported Status = 3
	// StatusError reports a codec failure (corrupt container, checksum
	// mismatch).
	StatusError Status = 4
	// StatusTooLarge reports a payload exceeding the server's cap.
	StatusTooLarge Status = 5
	// StatusSlowClient reports that the request body did not arrive within
	// the server's read timeout (slowloris defense). The connection is
	// closed after this response; reconnect and resend faster.
	StatusSlowClient Status = 6
	// StatusPartial reports a degraded-mode decompression: the payload is
	// real result data (like StatusOK), but one or more chunks of the
	// container could not be verified or repaired and their byte ranges are
	// zero-filled. Only sent when the server runs with Degraded enabled.
	StatusPartial Status = 7
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBusy:
		return "busy"
	case StatusBadRequest:
		return "bad request"
	case StatusUnsupported:
		return "unsupported version"
	case StatusError:
		return "codec error"
	case StatusTooLarge:
		return "payload too large"
	case StatusSlowClient:
		return "slow client"
	case StatusPartial:
		return "partial result"
	}
	return fmt.Sprintf("status(%d)", byte(s))
}

// ErrProtocol reports a malformed wire message. After it, the byte stream
// cannot be resynchronized and the connection must be dropped.
var ErrProtocol = errors.New("server: protocol error")

// ErrTooLarge reports a message payload exceeding the reader's cap.
var ErrTooLarge = fmt.Errorf("%w: payload too large", ErrProtocol)

// ErrVersion reports a protocol version this implementation does not speak.
var ErrVersion = fmt.Errorf("%w: unsupported protocol version", ErrProtocol)

func putHeader(hdr []byte, kind, alg byte, n int) {
	copy(hdr, magic[:])
	hdr[4] = ProtocolVersion
	hdr[5] = kind
	hdr[6] = alg
	hdr[7] = 0
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(n))
}

func writeMessage(w io.Writer, kind, alg byte, payload []byte) error {
	if uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("%w: %d-byte payload does not fit the length field", ErrProtocol, len(payload))
	}
	var hdr [HeaderSize]byte
	putHeader(hdr[:], kind, alg, len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteRequest frames one request onto w. alg is only meaningful for
// OpCompress and must be 0 otherwise.
func WriteRequest(w io.Writer, op Op, alg byte, payload []byte) error {
	return writeMessage(w, byte(op), alg, payload)
}

// WriteResponse frames one response onto w.
func WriteResponse(w io.Writer, st Status, payload []byte) error {
	return writeMessage(w, byte(st), 0, payload)
}

// readHeader validates one message header. io.EOF is returned untouched at
// a message boundary (clean close); every malformed case wraps ErrProtocol.
func readHeader(r io.Reader, maxPayload int) (kind, alg byte, n int, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, 0, 0, fmt.Errorf("%w: truncated header", ErrProtocol)
		}
		if err != io.EOF {
			// Preserve the transport error (deadline expiry in particular)
			// so callers can distinguish a slow client from garbage bytes.
			return 0, 0, 0, fmt.Errorf("%w: header read failed: %w", ErrProtocol, err)
		}
		return 0, 0, 0, err
	}
	if [4]byte(hdr[:4]) != magic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic", ErrProtocol)
	}
	if hdr[4] != ProtocolVersion {
		return 0, 0, 0, fmt.Errorf("%w %d", ErrVersion, hdr[4])
	}
	if hdr[7] != 0 {
		return 0, 0, 0, fmt.Errorf("%w: nonzero reserved byte", ErrProtocol)
	}
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	length := binary.LittleEndian.Uint32(hdr[8:12])
	if uint64(length) > uint64(maxPayload) {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes (cap %d)", ErrTooLarge, length, maxPayload)
	}
	return hdr[5], hdr[6], int(length), nil
}

func readPayload(r io.Reader, n int) ([]byte, error) {
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %w", ErrProtocol, err)
	}
	return payload, nil
}

// ReadRequest reads one request from r. Payload allocation is bounded by
// maxPayload (<= 0 selects DefaultMaxPayload).
func ReadRequest(r io.Reader, maxPayload int) (Op, byte, []byte, error) {
	kind, alg, n, err := readHeader(r, maxPayload)
	if err != nil {
		return 0, 0, nil, err
	}
	payload, err := readPayload(r, n)
	if err != nil {
		return 0, 0, nil, err
	}
	return Op(kind), alg, payload, nil
}

// ReadResponse reads one response from r. Payload allocation is bounded by
// maxPayload (<= 0 selects DefaultMaxPayload). A response's algorithm byte
// is 0; any other value is a protocol error.
func ReadResponse(r io.Reader, maxPayload int) (Status, []byte, error) {
	kind, alg, n, err := readHeader(r, maxPayload)
	if err != nil {
		return 0, nil, err
	}
	if alg != 0 {
		return 0, nil, fmt.Errorf("%w: algorithm byte %d in a response", ErrProtocol, alg)
	}
	payload, err := readPayload(r, n)
	if err != nil {
		return 0, nil, err
	}
	return Status(kind), payload, nil
}
