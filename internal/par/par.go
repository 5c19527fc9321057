// Package par runs a team of workers in which the calling goroutine is
// worker 0, and carries a worker's panic back to the caller.
package par

import "sync"

// Run calls work(0) on the calling goroutine and work(1) .. work(n-1) on
// new goroutines, and returns once every call has returned. A panic in
// any call is recovered: the first one calls stop, so that the other
// workers can quit early, and is raised again on the calling goroutine
// once all of them have returned. Left alone, a panic on a spawned
// goroutine would end the process beyond the reach of any recover the
// caller has, and one on the calling goroutine would unwind it while the
// other workers still write into state it is about to release.
func Run(n int, work func(w int), stop func()) {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		fault any
	)
	run := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() {
					fault = r
					stop()
				})
			}
		}()
		work(w)
	}
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
}
