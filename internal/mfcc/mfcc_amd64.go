//go:build amd64

package mfcc

import (
	"math"

	"vibguard/internal/cpuid"
)

// With AVX the pre-emphasis and log passes run in YMM registers
// (mfcc_amd64.s); the log lanes, which repeat math.Log's amd64 assembly,
// only if they match it on a probe.
func init() {
	if avx, _ := cpuid.Features(); !avx {
		return
	}
	emphasize = emphasizeAVX
	probe, got := []float64{0.375, 3, 1e-310, 7e300}, make([]float64, 4)
	logsAVX(got, probe, 0, 0)
	for i, v := range probe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Log(v)) {
			return
		}
	}
	logLanes = logsAVX
}

func emphasizeAVX(dst, x, w []float64, c, prev float64)
func logsAVX(dst, src []float64, floor float64, i int) int
