//go:build (!amd64 && !arm64) || noasm || purego

package simd

// detect: no assembly kernels in this build (unsupported GOARCH, or the
// noasm/purego build tags); every op runs its scalar loop.
func detect() int32 { return levelScalar }
