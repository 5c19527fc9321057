package simt

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fpcompress/internal/transforms"
	"fpcompress/internal/wordio"
)

// findDecodeFCM is §3.2's FCM decoder in its GPU form, the parallel
// "find" of union-find: thread blocks (goroutines) claim runs of indices,
// and each thread follows its word's distance chain back until it reaches
// a resolved word (distance 0), takes that word's value, then publishes
// its own value and clears its distance, so that other chains stop there.
// The atomic store of the distance is the release that makes the value
// write visible to them. vals and dists are clobbered; every distance
// must reach an earlier index, as the CPU decoder checks.
func findDecodeFCM(out, vals, dists []uint64, blocks int) {
	const run = 256
	var next atomic.Int64
	var wg sync.WaitGroup
	for range blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(run)) - run
				if lo >= len(dists) {
					return
				}
				for i := lo; i < min(lo+run, len(dists)); i++ {
					d := atomic.LoadUint64(&dists[i])
					if d == 0 {
						out[i] = vals[i]
						continue
					}
					j := i - int(d)
					for dj := atomic.LoadUint64(&dists[j]); dj != 0; dj = atomic.LoadUint64(&dists[j]) {
						j -= int(dj)
					}
					out[i], vals[i] = vals[j], vals[j]
					atomic.StoreUint64(&dists[i], 0)
				}
			}
		}()
	}
	wg.Wait()
}

// TestFCMFindDecodeMatchesSequential: the parallel find decoder, at
// several block counts, must rebuild exactly the words the CPU's one
// index-order pass (transforms.FCM) decodes, on inputs whose distances
// form long chains.
func TestFCMFindDecodeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	chains := make([]uint64, 1<<17)
	for i := range chains {
		if i > 100 && rng.Intn(3) == 0 {
			chains[i] = chains[rng.Intn(i)]
		} else {
			chains[i] = math.Float64bits(rng.NormFloat64())
		}
	}
	farRepeats := append([]byte(nil), kernelInputs()["smoothDP"]...)
	farRepeats = append(farRepeats, farRepeats...)
	inputs := map[string][]byte{
		"chains":     wordio.Bytes64(chains, len(chains)*8),
		"farRepeats": farRepeats,
		"zeros":      make([]byte, 50000),
	}
	for name, src := range inputs {
		enc := transforms.FCM{}.ForwardInto(nil, src)
		want, err := transforms.FCM{}.InverseInto(nil, enc, transforms.NoLimit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := len(src) / 8
		const hn = 8 // the encoding's decoded-length prefix
		for _, blocks := range []int{1, 4, 16} {
			vals := wordio.Words64(enc[hn:hn+n*8], false)
			dists := wordio.Words64(enc[hn+n*8:hn+2*n*8], false)
			out := make([]uint64, n)
			findDecodeFCM(out, vals, dists, blocks)
			for i, w := range wordio.Words64(want[:n*8], false) {
				if out[i] != w {
					t.Fatalf("%s, %d blocks: word %d is %#x, sequential decode %#x", name, blocks, i, out[i], w)
				}
			}
		}
	}
}
