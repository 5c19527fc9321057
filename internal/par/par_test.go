package par

import (
	"sync/atomic"
	"testing"
	"time"
)

// catch runs f and returns the value it panicked with, or nil.
func catch(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestRunRunsEveryWorker: each worker index runs exactly once, worker 0
// included, and stop is not called when nothing panics.
func TestRunRunsEveryWorker(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		var ran [5]atomic.Int32
		Run(n, func(w int) { ran[w].Add(1) }, func() { t.Errorf("n=%d: stop called without a panic", n) })
		for w := range n {
			if got := ran[w].Load(); got != 1 {
				t.Errorf("n=%d: worker %d ran %d times, want 1", n, w, got)
			}
		}
		if n == 0 && ran[0].Load() != 1 {
			t.Errorf("n=0: the calling goroutine did not run worker 0")
		}
	}
}

// TestRunCarriesPanics: a panic on a spawned worker, on the calling one,
// or on both reaches the caller once every worker has returned, and
// stop runs once so that the others can quit.
func TestRunCarriesPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		panic func(w int) bool
	}{
		{"spawned worker", func(w int) bool { return w == 1 }},
		{"calling worker", func(w int) bool { return w == 0 }},
		{"every worker", func(int) bool { return true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stopped, running atomic.Int32
			r := catch(func() {
				Run(3, func(w int) {
					running.Add(1)
					defer running.Add(-1)
					if tc.panic(w) {
						panic("injected")
					}
					// A worker that does not panic runs until stopped, so
					// Run returning early would leave it counted.
					for stopped.Load() == 0 {
						time.Sleep(time.Millisecond)
					}
				}, func() { stopped.Add(1) })
			})
			if r != "injected" {
				t.Fatalf("recovered %v, want the injected panic", r)
			}
			if n := stopped.Load(); n != 1 {
				t.Errorf("stop called %d times, want 1", n)
			}
			if n := running.Load(); n != 0 {
				t.Errorf("%d workers still running after Run returned", n)
			}
		})
	}
}
