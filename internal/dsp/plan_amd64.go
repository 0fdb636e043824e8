//go:build amd64

package dsp

import "vibguard/internal/cpuid"

// The butterflies and the passes around them run in assembly (plan_amd64.s)
// when the CPU and the operating system support AVX, checked once at
// start-up; otherwise the Go loops run. The AVX kernel is bit-identical to
// generic: it uses no FMA, whose single rounding would change low bits.
var kernels = amd64Kernels()

func amd64Kernels() []kernel {
	if avx, _ := cpuid.Features(); avx {
		return []kernel{{"avx", forwardAVX, butterfliesAVX, shapeAVX, repackAVX, productAVX, foldAVX, scaleAVX, maxAbsAVX, cubicAVX, dctAVX}, generic}
	}
	return []kernel{generic}
}

// The AVX kernel keeps generic's contracts. The pair passes take lo a
// multiple of 8 or lo >= hi, and foldAVX an even lo and hi.
func forwardAVX(x, tw []complex128)
func butterfliesAVX(x, tw []complex128)
func shapeAVX(y, w []complex128, g, pw []float64, lo, hi int)
func repackAVX(y, w []complex128, lo, hi int)
func productAVX(za, y, w []complex128, lo, hi int)
func foldAVX(f, y []complex128, rev []int32, lo, hi int)
func scaleAVX(dst, src []float64, s float64)
func maxAbsAVX(x []float64, m float64) float64
func cubicAVX(x []float64, peak, gain, d float64)
func dctAVX(dst, x, tab []float64)
