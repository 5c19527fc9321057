//go:build race

package container

// raceEnabled gates the allocation-ceiling tests off under the race
// detector, whose instrumentation changes allocation counts.
const raceEnabled = true
