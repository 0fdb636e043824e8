//go:build amd64

package cpuid

// Features reports AVX, and AVX2 with FMA, each only where the operating
// system saves the YMM registers across context switches
// (CPUID.1:ECX.OSXSAVE and .AVX, then XCR0 bits 1 and 2).
func Features() (avx, avx2fma bool)
