package brnn

import "math"

// gateKernel runs four lanes at a time of gateRow from lane j on and
// returns the lane it stopped at: the end of its last whole group, or a
// group it leaves to the scalar loop. gateKernels lists the kernels this
// CPU can run, preferred first; all of them give the scalar loop's bits.
type gateKernel struct {
	name string
	run  func(zx, zh, b, prevC, gates, cell, tc, hid []float64, j int) int
}

// gateLanes is the preferred gate kernel; only tests switch it.
var gateLanes = gateKernels[0].run

// gatesGeneric leaves every lane to the scalar loop.
func gatesGeneric(zx, zh, b, prevC, gates, cell, tc, hid []float64, j int) int { return j }

// gateRow evaluates one frame of an LSTM direction of H = len(cell)
// units: from the pre-activations zx + zh + b (4H each, gates i, f, g, o)
// and the cell state prevC it writes the gates, c = f·prevC + i·g, tanh c
// and h = o·tanh c. cell may alias prevC.
func gateRow(zx, zh, b, prevC, gateOut, cell, tc, hid []float64) {
	H := len(cell)
	_, _, _, _, _, _, _ = zx[4*H-1], zh[4*H-1], b[4*H-1], gateOut[4*H-1], prevC[H-1], tc[H-1], hid[H-1]
	for j := 0; j < H; {
		j = gateLanes(zx, zh, b, prevC, gateOut, cell, tc, hid, j)
		for end := min(j+4, H); j < end; j++ {
			i := sigmoid(zx[j] + zh[j] + b[j])
			f := sigmoid(zx[H+j] + zh[H+j] + b[H+j])
			g := math.Tanh(zx[2*H+j] + zh[2*H+j] + b[2*H+j])
			o := sigmoid(zx[3*H+j] + zh[3*H+j] + b[3*H+j])
			gateOut[j], gateOut[H+j], gateOut[2*H+j], gateOut[3*H+j] = i, f, g, o
			cell[j] = f*prevC[j] + i*g
			tc[j] = math.Tanh(cell[j])
			hid[j] = o * tc[j]
		}
	}
}

// GateRow is gateRow with the cell in place, for the brnnbench kernels.
func GateRow(zx, zh, b, gates, cell, tc, hid []float64) {
	gateRow(zx, zh, b, cell, gates, cell, tc, hid)
}
