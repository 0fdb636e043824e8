//go:build amd64

package brnn

import "math"

// The gate kernel (gate_amd64.s) reproduces math.Exp's FMA path. It runs
// where the CPU has AVX2 and FMA and math.Exp takes that path, which
// exp(0.375)'s last bit tells apart (GODEBUG can turn it off).
var gateKernels = amd64GateKernels()

func amd64GateKernels() []gateKernel {
	generic := gateKernel{"generic", gatesGeneric}
	if hasAVX2FMA() && math.Float64bits(math.Exp(0.375)) == 0x3ff747a513dbef6b {
		return []gateKernel{{"avxfma", gatesAVX}, generic}
	}
	return []gateKernel{generic}
}

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the operating
// system saves the YMM registers.
func hasAVX2FMA() bool

//go:noescape
func gatesAVX(zx, zh, b, prevC, gates, cell, tc, hid []float64, j int) int
