package container

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"
)

// pairPanicCodec is shrinkCodec except that its first two calls, forward
// or inverse, each panic once both have started. At two workers those two
// calls run on different goroutines, so one of the panics is raised on a
// goroutine the engine spawned.
type pairPanicCodec struct {
	calls *atomic.Int32
	both  chan struct{}
}

func newPairPanicCodec() pairPanicCodec {
	return pairPanicCodec{calls: new(atomic.Int32), both: make(chan struct{})}
}

func (c pairPanicCodec) hit() {
	switch c.calls.Add(1) {
	case 1:
		select {
		case <-c.both:
		case <-time.After(5 * time.Second): // one worker: no second call comes
		}
		panic("injected")
	case 2:
		close(c.both)
		panic("injected")
	}
}

func (c pairPanicCodec) Forward(chunk []byte) []byte {
	c.hit()
	return shrinkCodec{}.Forward(chunk)
}

func (c pairPanicCodec) Inverse(enc []byte) ([]byte, error) {
	c.hit()
	return shrinkCodec{}.Inverse(enc)
}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestCodecPanicReachesCaller: a codec panic on any engine worker,
// compress or decompress, reaches the caller's goroutine (where a recover
// can catch it) instead of ending the process, and the engine state the
// panicking call used serves the next call correctly.
func TestCodecPanicReachesCaller(t *testing.T) {
	// Eight chunks, each mostly trailing zeros, so that every chunk is
	// stored encoded and decoding runs the codec.
	src := make([]byte, 8*1024)
	for i := 0; i < len(src); i += 1024 {
		copy(src[i:], "chunk data")
	}
	p := Params{ChunkSize: 1024, Parallelism: 2}
	want := Compress(src, 1, shrinkCodec{}, Params{ChunkSize: 1024, Parallelism: 1})

	if r := recovered(func() { Compress(src, 1, newPairPanicCodec(), p) }); r != "injected" {
		t.Fatalf("compress: recovered %v, want the injected panic", r)
	}
	if got := Compress(src, 1, shrinkCodec{}, p); !bytes.Equal(got, want) {
		t.Fatal("compress after a panic: container differs from the one-worker one")
	}
	if r := recovered(func() { Decompress(want, newPairPanicCodec(), p) }); r != "injected" {
		t.Fatalf("decompress: recovered %v, want the injected panic", r)
	}
	if got, err := Decompress(want, shrinkCodec{}, p); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("decompress after a panic: err %v, round trip equal %v", err, bytes.Equal(got, src))
	}
}
