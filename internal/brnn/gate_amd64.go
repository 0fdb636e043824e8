//go:build amd64

package brnn

import (
	"math"

	"vibguard/internal/cpuid"
)

// The gate kernel (gate_amd64.s) reproduces math.Exp's FMA path. It runs
// where the CPU has AVX2 and FMA and math.Exp takes that path, which
// exp(0.375)'s last bit tells apart (GODEBUG can turn it off).
var gateKernels, gemmKernels = amd64Kernels()

func amd64Kernels() ([]gateKernel, []gemmKernel) {
	gate := []gateKernel{{"generic", gatesGeneric}}
	gemm := []gemmKernel{{"sse2", func(out, x, blk []float64, nblk int) int { return 0 }}}
	avx, fma := cpuid.Features()
	if avx {
		gemm = append([]gemmKernel{{"avx", gemmPairsAVX}}, gemm...)
	}
	if fma && math.Float64bits(math.Exp(0.375)) == 0x3ff747a513dbef6b {
		gate = append([]gateKernel{{"avxfma", gatesAVX}}, gate...)
	}
	return gate, gemm
}

//go:noescape
func gatesAVX(zx, zh, b, prevC, gates, cell, tc, hid []float64, j int) int
