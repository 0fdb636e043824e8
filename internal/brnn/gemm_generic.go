//go:build !amd64

package brnn

// gemmPackedEnabled reports whether the packed SIMD kernel is compiled in.
// Without it, packNT skips the interleaved copy and apply falls back to
// the pure-Go blocked kernel.
const gemmPackedEnabled = false

var gemmKernels = []gemmKernel{{"generic", func(out, x, blk []float64, nblk int) int { return 0 }}}

// gemmPacked16 is never reached when gemmPackedEnabled is false.
func gemmPacked16(out, x, w []float64) {
	panic("brnn: packed gemm kernel not available on this architecture")
}
