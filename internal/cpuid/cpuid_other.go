//go:build !amd64

package cpuid

// Features reports no x86 vector extensions off amd64.
func Features() (avx, avx2fma bool) { return false, false }
