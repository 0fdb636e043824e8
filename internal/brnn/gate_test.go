package brnn

import (
	"math"
	"math/rand"
	"testing"
)

// forEachGateKernel runs f once per gate kernel this CPU can run (the
// scalar fallback included), with that kernel selected.
func forEachGateKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range gateKernels {
		t.Run(k.name, func(t *testing.T) {
			prev := gateLanes
			gateLanes = k.run
			defer func() { gateLanes = prev }()
			f(t)
		})
	}
}

// gateRowOracle is the gate loop of the per-frame training pass before
// the gate kernels, kept as the oracle of gateRow.
func gateRowOracle(zx, zh, b, prevC, gates, cell, tc, hid []float64) {
	H := len(cell)
	for j := 0; j < H; j++ {
		zi := zx[j] + zh[j] + b[j]
		zf := zx[H+j] + zh[H+j] + b[H+j]
		zg := zx[2*H+j] + zh[2*H+j] + b[2*H+j]
		zo := zx[3*H+j] + zh[3*H+j] + b[3*H+j]
		i := sigmoid(zi)
		f := sigmoid(zf)
		g := math.Tanh(zg)
		o := sigmoid(zo)
		gates[j], gates[H+j], gates[2*H+j], gates[3*H+j] = i, f, g, o
		cell[j] = f*prevC[j] + i*g
		tc[j] = math.Tanh(cell[j])
		hid[j] = o * tc[j]
	}
}

// gateEdges are the lane values at the kernel's edges: signed zeros and
// subnormals; tanh's branch points 0.625 and 0.5·MAXLOG with their float
// neighbours; exp's overflow and denormal limits past the kernel's ±708
// range; the non-finite values; and a few ordinary ones.
func gateEdges() []float64 {
	var out []float64
	for _, v := range []float64{0, 5e-324, 2.2e-310, math.SmallestNonzeroFloat64 * 3, 1e-8, 0.3, 1, 3.7, 20,
		708, 709, 745, 800, 1e300, math.MaxFloat64, math.Inf(1)} {
		out = append(out, v, -v)
	}
	for _, v := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01, 708} {
		for _, w := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			out = append(out, w, -w)
		}
	}
	return append(out, math.NaN(), math.Float64frombits(0xfff8000000000001))
}

// negZeros returns n copies of -0: z + (-0) is z itself, -0 and NaN
// included, so zx alone sets the pre-activations.
func negZeros(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Copysign(0, -1)
	}
	return out
}

// checkGateRow runs gateRow and the oracle on one row, both with the
// cell in place (as inference runs it) and into a separate row (as
// training does), and fails on the first bit that differs.
func checkGateRow(t *testing.T, zx, zh, b, prevC []float64) {
	t.Helper()
	H := len(prevC)
	for _, inPlace := range []bool{false, true} {
		var outs [2][4][]float64
		for k := range outs {
			gates, cell, tc, hid := make([]float64, 4*H), append([]float64(nil), prevC...), make([]float64, H), make([]float64, H)
			prev := prevC
			if inPlace {
				prev = cell
			} else {
				clear(cell)
			}
			if k == 0 {
				gateRow(zx, zh, b, prev, gates, cell, tc, hid)
			} else {
				gateRowOracle(zx, zh, b, prev, gates, cell, tc, hid)
			}
			outs[k] = [4][]float64{gates, cell, tc, hid}
		}
		for part, name := range []string{"gates", "cell", "tanh c", "hidden"} {
			for j, v := range outs[0][part] {
				if w := outs[1][part][j]; math.Float64bits(v) != math.Float64bits(w) {
					lane := j % H
					t.Fatalf("H=%d in place %v: %s[%d] = %v (%#x), oracle %v (%#x); lane inputs z=%v prevC=%v",
						H, inPlace, name, j, v, math.Float64bits(v), w, math.Float64bits(w),
						[]float64{zx[lane], zx[H+lane], zx[2*H+lane], zx[3*H+lane]}, prevC[lane])
				}
			}
		}
	}
}

// Every edge value in every gate's pre-activation and in the previous
// cell, lane by lane next to ordinary lanes, on every kernel: the
// kernel's lanes and the groups it leaves to the scalar loop must both
// carry the oracle's bits. A cell edge reaches tanh c through f = 1 and
// i·g = +0 (z_f = 40, z_g = 0).
func TestGateRowEdgesBitIdentical(t *testing.T) {
	forEachGateKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, v := range gateEdges() {
			for _, H := range []int{1, 3, 4, 8, 9} {
				for pos := 0; pos < 5; pos++ {
					zx, prevC := make([]float64, 4*H), make([]float64, H)
					for i := range zx {
						zx[i] = rng.NormFloat64() * 3
					}
					for i := range prevC {
						prevC[i] = rng.NormFloat64()
					}
					lane := rng.Intn(H)
					if pos < 4 {
						zx[pos*H+lane] = v
					} else {
						prevC[lane], zx[H+lane], zx[2*H+lane] = v, 40, 0
					}
					checkGateRow(t, zx, negZeros(4*H), negZeros(4*H), prevC)
				}
			}
		}
	})
}

// At least a million random pre-activations per kernel, on the paper's
// 64 units and on a size with a three-lane tail, each the sum of three
// random terms as in a real row: Gaussians at three
// scales and magnitudes spread log-uniformly over 1e-12..1e3, so both
// tanh branches, the far tails of both sigmoid branches and the
// kernel's range limit are all crossed many times.
func TestGateRowRandomBitIdentical(t *testing.T) {
	forEachGateKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		draw := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return rng.NormFloat64()
			case 1:
				return rng.NormFloat64() * 8
			case 2:
				return rng.NormFloat64() * 60
			}
			return math.Copysign(math.Pow(10, -12+15*rng.Float64()), rng.Float64()-0.5)
		}
		n := 0
		for n < 1_000_000 {
			H := 64
			if n%2 == 1 {
				H = 67
			}
			zx, zh, b, prevC := make([]float64, 4*H), make([]float64, 4*H), make([]float64, 4*H), make([]float64, H)
			for i := range zx {
				zx[i], zh[i], b[i] = draw(), draw()/4, rng.NormFloat64()
			}
			for i := range prevC {
				prevC[i] = draw()
			}
			checkGateRow(t, zx, zh, b, prevC)
			n += 5 * H
		}
	})
}

// On a CPU with AVX2 and FMA whose math.Exp takes the FMA path, the
// assembly kernel must be listed, or the tests above pin nothing new.
func TestGateKernelsListed(t *testing.T) {
	names := make([]string, len(gateKernels))
	for i, k := range gateKernels {
		names[i] = k.name
	}
	t.Logf("gate kernels: %v", names)
	if names[len(names)-1] != "generic" {
		t.Fatalf("the scalar fallback must come last: %v", names)
	}
	// A kernel other than the fallback takes every group of an ordinary
	// row, so the bit-identity tests above measure it and not the loop.
	const H = 64
	zx, zh, b, prevC := make([]float64, 4*H), make([]float64, 4*H), make([]float64, 4*H), make([]float64, H)
	for i := range zx {
		zx[i] = float64(i%17) - 8
	}
	for _, k := range gateKernels[:len(gateKernels)-1] {
		if got := k.run(zx, zh, b, prevC, make([]float64, 4*H), make([]float64, H), make([]float64, H), make([]float64, H), 0); got != H {
			t.Errorf("kernel %s stopped at lane %d of %d", k.name, got, H)
		}
	}
}

// BenchmarkGateRowKernels measures the gate row of the paper's 64 units on
// each gate kernel, the scalar fallback included.
func BenchmarkGateRowKernels(b *testing.B) {
	const H = 64
	rng := rand.New(rand.NewSource(4))
	zx, zh, bias, gates := make([]float64, 4*H), make([]float64, 4*H), make([]float64, 4*H), make([]float64, 4*H)
	cell, tc, hid := make([]float64, H), make([]float64, H), make([]float64, H)
	for i := range zx {
		zx[i], zh[i], bias[i] = 2*rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()/4
	}
	for _, k := range gateKernels {
		b.Run(k.name, func(b *testing.B) {
			prev := gateLanes
			gateLanes = k.run
			defer func() { gateLanes = prev }()
			for i := 0; i < b.N; i++ {
				gateRow(zx, zh, bias, cell, gates, cell, tc, hid)
			}
		})
	}
}
