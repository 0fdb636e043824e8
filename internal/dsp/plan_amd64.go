//go:build amd64

package dsp

// The butterfly stages run in assembly (plan_amd64.s) when the CPU and the
// operating system support AVX: two butterflies per YMM operation. The
// check runs once, at start-up; without AVX the pure-Go loop runs. The
// AVX kernel is bit-identical to butterfliesGeneric: it uses no FMA, whose
// single rounding would change the low bits of each complex product.
var kernels = amd64Kernels()

func amd64Kernels() []kernel {
	generic := kernel{"generic", butterfliesGeneric}
	if hasAVX() {
		return []kernel{{"avx", butterfliesAVX}, generic}
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

// butterfliesAVX has the contract of butterfliesGeneric.
//
//go:noescape
func butterfliesAVX(x, tw []complex128)
