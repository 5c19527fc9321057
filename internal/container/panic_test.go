package container

import (
	"bytes"
	"runtime"
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
	want := CompressAppend(nil, src, 1, shrinkCodec{}, Params{ChunkSize: 1024, Parallelism: 1})

	if r := recovered(func() { CompressAppend(nil, src, 1, newPairPanicCodec(), p) }); r != "injected" {
		t.Fatalf("compress: recovered %v, want the injected panic", r)
	}
	if got := CompressAppend(nil, src, 1, shrinkCodec{}, p); !bytes.Equal(got, want) {
		t.Fatal("compress after a panic: container differs from the one-worker one")
	}
	if r := recovered(func() { DecompressAppend(nil, want, newPairPanicCodec(), p) }); r != "injected" {
		t.Fatalf("decompress: recovered %v, want the injected panic", r)
	}
	if got, err := DecompressAppend(nil, want, shrinkCodec{}, p); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("decompress after a panic: err %v, round trip equal %v", err, bytes.Equal(got, src))
	}
}

// TestCodecPanicAheadReachesCaller: a codec panic on a chunk decoded ahead
// of the output, while worker 0 still grows it, reaches the caller too,
// and no engine goroutine outlives the call.
func TestCodecPanicAheadReachesCaller(t *testing.T) {
	const cs = 1024
	src := aheadTestSrc(cs, 12)
	blob := CompressAppend(nil, src, 1, shrinkCodec{}, Params{ChunkSize: cs})
	trip(t, blob, 5)
	base := runtime.NumGoroutine()
	for _, nw := range []int{2, 4} {
		c := newTripCodec(true)
		grows := holdGrow(t, c.tripped)
		if r := recovered(func() { DecompressAppend(nil, blob, c, Params{ChunkSize: cs, Parallelism: nw}) }); r != "injected" {
			t.Fatalf("%d workers: recovered %v, want the injected panic", nw, r)
		}
		if g := grows.Load(); g != 1 {
			t.Errorf("%d workers: %d decodes grew their output aside, want 1", nw, g)
		}
	}
	// An exiting goroutine may still count for a moment after the call.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panics, %d before", runtime.NumGoroutine(), base)
		}
	}
}
