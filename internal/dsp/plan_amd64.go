//go:build amd64

package dsp

// The butterflies and the passes around them run in assembly (plan_amd64.s)
// when the CPU and the operating system support AVX, checked once at
// start-up; otherwise the Go loops run. The AVX kernel is bit-identical to
// generic: it uses no FMA, whose single rounding would change low bits.
var kernels = amd64Kernels()

func amd64Kernels() []kernel {
	if HasAVX() {
		return []kernel{{"avx", forwardAVX, butterfliesAVX, shapeAVX, repackAVX, productAVX, foldAVX, scaleAVX, maxAbsAVX, cubicAVX, dctAVX}, generic}
	}
	return []kernel{generic}
}

// HasAVX reports whether the CPU implements AVX and the operating system
// saves the YMM registers across context switches (CPUID.1:ECX.OSXSAVE
// and .AVX, then XCR0 bits 1 and 2).
func HasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

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
