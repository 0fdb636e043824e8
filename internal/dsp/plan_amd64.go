//go:build amd64

package dsp

// The butterflies and the passes around them run in assembly (plan_amd64.s)
// when the CPU and the operating system support AVX, checked once at
// start-up; otherwise the Go loops run. The AVX kernel is bit-identical to
// generic: it uses no FMA, whose single rounding would change low bits.
var kernels = amd64Kernels()

func amd64Kernels() []kernel {
	if hasAVX() {
		return []kernel{{"avx", butterfliesAVX, shapeAVX, repackAVX, productAVX, foldAVX, scaleAVX, maxAbsAVX, cubicAVX}, generic}
	}
	return []kernel{generic}
}

// hasAVX reports whether the CPU implements AVX and the operating system
// saves the YMM registers across context switches (CPUID.1:ECX.OSXSAVE
// and .AVX, then XCR0 bits 1 and 2).
func hasAVX() bool {
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

// The AVX kernel keeps generic's contracts. The per-bin passes take k1-k0 a
// multiple of 4 and k1 <= len(y)/2, and shapeAVX no pair whose h-k <= cut.
func butterfliesAVX(x, tw []complex128)
func shapeAVX(y, w []complex128, g []float64, k0, k1, cut int, low, total float64) (float64, float64)
func repackAVX(y, w []complex128, k0, k1 int)
func productAVX(za, y, w []complex128, k0, k1 int)
func foldAVX(f, y []complex128)
func scaleAVX(dst, src []float64, s float64)
func maxAbsAVX(x []float64, m float64) float64
func cubicAVX(x []float64, peak, gain, d float64)
