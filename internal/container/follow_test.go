package container

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// followLog checks the reports of a followed decode against src: one at a
// time, each for a longer prefix, whose bytes are src's. It keeps the
// longest prefix reported.
type followLog struct {
	t      *testing.T
	name   string
	src    []byte
	busy   atomic.Int32
	last   int
	errors int
}

func (l *followLog) follow(out []byte, n int) {
	if l.busy.Add(1) != 1 {
		l.fail("two reports ran at once")
	}
	if len(out) != len(l.src) || n <= l.last || n > len(out) {
		l.fail(fmt.Sprintf("report of %d bytes of %d after %d", n, len(out), l.last))
	} else if !bytes.Equal(out[:n], l.src[:n]) {
		l.fail(fmt.Sprintf("the reported %d bytes differ from the source", n))
	}
	l.last = n
	time.Sleep(50 * time.Microsecond) // other workers land chunks meanwhile
	l.busy.Add(-1)
}

func (l *followLog) fail(msg string) {
	if l.errors++; l.errors <= 3 {
		l.t.Errorf("%s: %s", l.name, msg)
	}
}

// TestDecompressFollow: a followed decode reports ever longer prefixes of
// chunks that decoded OK, one report at a time, whether the chunks decode
// in place or ahead of the output. Every chunk that lands is reported
// before the decode returns: the whole output of a clean decode, and
// exactly the chunks below the lowest failing one of a failed or partial
// decode.
func TestDecompressFollow(t *testing.T) {
	const cs, n = 1024, 20
	src := aheadTestSrc(cs, n)[:n*cs-100]
	aheadGrowHook = func() { time.Sleep(2 * time.Millisecond) } // the other workers decode ahead meanwhile
	defer func() { aheadGrowHook = nil }()
	clean := CompressAppend(nil, src, 1, shrinkCodec{}, Params{ChunkSize: cs, Integrity: true})
	tripped := bytes.Clone(clean)
	trip(t, tripped, 7)
	trip(t, tripped, 12)
	for _, nw := range []int{1, 2, 4, 8} {
		for _, dst := range []struct {
			name string
			b    []byte
		}{{"nil", nil}, {"warm", make([]byte, 0, len(src))}} {
			p := Params{ChunkSize: cs, Parallelism: nw}
			name := fmt.Sprintf("%d workers, %s dst", nw, dst.name)
			l := &followLog{t: t, name: name, src: src}
			out, _, err := DecompressFollow(dst.b, clean, shrinkCodec{}, p, false, l.follow)
			if err != nil || !bytes.Equal(out, src) || l.last != len(src) {
				t.Errorf("%s: err %v, last report %d of %d bytes", name, err, l.last, len(src))
			}

			l = &followLog{t: t, name: name + ", strict failure", src: src}
			if _, _, err := DecompressFollow(dst.b, tripped, shrinkCodec{}, p, false, l.follow); err == nil || l.last != 7*cs {
				t.Errorf("%s, strict failure: err %v, last report %d, want %d", name, err, l.last, 7*cs)
			}

			l = &followLog{t: t, name: name + ", partial", src: src}
			_, rep, err := DecompressFollow(dst.b, tripped, shrinkCodec{}, p, true, l.follow)
			if err != nil || rep.Counts().OK != n-2 || l.last != 7*cs {
				t.Errorf("%s, partial: err %v, last report %d, want %d", name, err, l.last, 7*cs)
			}
		}
	}
}

// TestFollowPanic: a panic in a followed decode, in a report or in the
// codec, reaches the caller, and the engine state it leaves pooled
// neither reports to that follower again nor keeps the next followed
// decode from reporting.
func TestFollowPanic(t *testing.T) {
	const cs = 1024
	src := aheadTestSrc(cs, 8)
	blob := CompressAppend(nil, src, 1, shrinkCodec{}, Params{ChunkSize: cs})
	tripped := bytes.Clone(blob)
	trip(t, tripped, 5)
	p := Params{ChunkSize: cs, Parallelism: 1}
	var stale atomic.Int32
	for _, tc := range []struct {
		name   string
		decode func()
	}{
		{"report", func() {
			DecompressFollow(nil, blob, shrinkCodec{}, p, false, func([]byte, int) { panic("injected") })
		}},
		{"codec", func() {
			DecompressFollow(nil, tripped, newTripCodec(true), p, false, func([]byte, int) { stale.Add(1) })
		}},
	} {
		for range 4 {
			if r := recovered(tc.decode); r != "injected" {
				t.Fatalf("%s: recovered %v, want the injected panic", tc.name, r)
			}
			reports := stale.Load()
			if out, err := DecompressAppend(nil, blob, shrinkCodec{}, p); err != nil || !bytes.Equal(out, src) || stale.Load() != reports {
				t.Fatalf("%s: unfollowed decode after the panic: err %v, %d reports to the old follower", tc.name, err, stale.Load()-reports)
			}
			l := &followLog{t: t, name: tc.name + ": followed decode after the panic", src: src}
			if out, _, err := DecompressFollow(nil, blob, shrinkCodec{}, p, false, l.follow); err != nil || !bytes.Equal(out, src) || l.last != len(src) {
				t.Fatalf("%s: followed decode after the panic: err %v, last report %d of %d", tc.name, err, l.last, len(src))
			}
		}
	}
}
