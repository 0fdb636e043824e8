//go:build amd64

package brnn

// gemmPackedEnabled reports whether the packed SIMD kernels are compiled
// in. gemmPacked16 uses only SSE2, part of the architecture baseline;
// gemmPairsAVX runs where the CPU has AVX (gate_amd64.go).
const gemmPackedEnabled = true

// gemmPacked16 computes the 16 dot products out[l] = Σ_c x[c]·w[c*16+l]
// over an interleaved 16-lane weight block (see packNT). Each XMM lane is
// one output row's private accumulator advancing over c in increasing
// order, and MULPD/ADDPD round exactly like the scalar * and + of the
// reference kernels — FMA would fuse the rounding and is deliberately not
// used — so the result is bit-identical to gemmNT row by row.
//
// Preconditions: len(out) >= 16, len(w) >= 16*len(x).
//
//go:noescape
func gemmPacked16(out, x, w []float64)

// gemmPairsAVX does gemmPacked16's work on the first nblk/2 block pairs,
// 32 output rows at a time, and returns how many blocks it ran.
//
//go:noescape
func gemmPairsAVX(out, x, blk []float64, nblk int) int
