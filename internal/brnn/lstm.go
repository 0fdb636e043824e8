package brnn

import (
	"fmt"
	"math"
	"math/rand"
)

// lstmCell is one unidirectional LSTM layer. Gate order in the stacked
// weight matrices is input, forget, candidate, output.
type lstmCell struct {
	inputDim, hiddenDim int
	// wx is (4H x D), wh is (4H x H), b is (4H).
	wx, wh *Matrix
	b      []float64
}

func newLSTMCell(inputDim, hiddenDim int, rng *rand.Rand) *lstmCell {
	c := &lstmCell{
		inputDim:  inputDim,
		hiddenDim: hiddenDim,
		wx:        NewMatrixRandom(4*hiddenDim, inputDim, rng),
		wh:        NewMatrixRandom(4*hiddenDim, hiddenDim, rng),
		b:         make([]float64, 4*hiddenDim),
	}
	// Forget-gate bias starts at 1 so memory persists early in training.
	for i := hiddenDim; i < 2*hiddenDim; i++ {
		c.b[i] = 1
	}
	return c
}

// lstmTrace stores per-timestep activations needed for BPTT.
type lstmTrace struct {
	// inputs[t] is the input vector at t (not owned).
	inputs [][]float64
	// gates[t] holds i, f, g, o concatenated (4H) after nonlinearity.
	gates [][]float64
	// cells[t] and hidden[t] are c_t and h_t (H each).
	cells, hidden [][]float64
	// tanhC[t] is tanh(c_t), cached for the backward pass.
	tanhC [][]float64
}

// forward runs the cell over a sequence, returning hidden states and a
// trace for BPTT (nil trace members when train is false is unnecessary —
// the trace is cheap relative to the gradients, so it is always kept).
func (c *lstmCell) forward(inputs [][]float64) (*lstmTrace, error) {
	T := len(inputs)
	tr := &lstmTrace{
		inputs: inputs,
		gates:  make([][]float64, T),
		cells:  make([][]float64, T),
		hidden: make([][]float64, T),
		tanhC:  make([][]float64, T),
	}
	H := c.hiddenDim
	prevH := make([]float64, H)
	prevC := make([]float64, H)
	zx := make([]float64, 4*H)
	zh := make([]float64, 4*H)
	for t := 0; t < T; t++ {
		if len(inputs[t]) != c.inputDim {
			return nil, fmt.Errorf("brnn: input %d has dim %d, want %d", t, len(inputs[t]), c.inputDim)
		}
		if err := c.wx.MulVec(inputs[t], zx); err != nil {
			return nil, err
		}
		if err := c.wh.MulVec(prevH, zh); err != nil {
			return nil, err
		}
		gates := make([]float64, 4*H)
		cell := make([]float64, H)
		hid := make([]float64, H)
		tc := make([]float64, H)
		for j := 0; j < H; j++ {
			zi := zx[j] + zh[j] + c.b[j]
			zf := zx[H+j] + zh[H+j] + c.b[H+j]
			zg := zx[2*H+j] + zh[2*H+j] + c.b[2*H+j]
			zo := zx[3*H+j] + zh[3*H+j] + c.b[3*H+j]
			i := sigmoid(zi)
			f := sigmoid(zf)
			g := math.Tanh(zg)
			o := sigmoid(zo)
			gates[j], gates[H+j], gates[2*H+j], gates[3*H+j] = i, f, g, o
			cell[j] = f*prevC[j] + i*g
			tc[j] = math.Tanh(cell[j])
			hid[j] = o * tc[j]
		}
		tr.gates[t] = gates
		tr.cells[t] = cell
		tr.hidden[t] = hid
		tr.tanhC[t] = tc
		prevH, prevC = hid, cell
	}
	return tr, nil
}

// lstmGrads accumulates parameter gradients for one cell.
type lstmGrads struct {
	wx, wh *Matrix
	b      []float64
}

func newLSTMGrads(c *lstmCell) *lstmGrads {
	return &lstmGrads{
		wx: NewMatrix(c.wx.Rows, c.wx.Cols),
		wh: NewMatrix(c.wh.Rows, c.wh.Cols),
		b:  make([]float64, len(c.b)),
	}
}

// lstmTrainer runs one direction's half of a training step on the packed
// kernels that inference uses: the input projections of every frame in
// one pass, one packed product per recurrent step, and in BPTT the
// product Whᵀ·dz on a packed transposed copy of Wh and the weight
// gradients as two GEMM passes after the sequential loop. The arithmetic
// is the per-frame reference's expression for expression, and each weight
// gradient sums its terms in the reference order (t from T-1 down to 0,
// one accumulator from +0), so every gradient is bit-identical to the
// reference for finite inputs. Buffers grow to the longest sequence seen.
type lstmTrainer struct {
	c        *lstmCell
	g        *lstmGrads
	reversed bool // the backward direction: it reads the inputs last first
	// The weights, repacked every step because the update changes them:
	// Wx and Wh for the forward pass, Whᵀ (whT, H x 4H) for BPTT.
	wx, wh, whTp packedNT
	whT          []float64
	// The trace: inputs in this direction's time order (T x D), input
	// projections and gates after their nonlinearities (T x 4H), tanh c_t
	// (T x H), and cells and hidden ((T+1) x H, row 0 the zero state, row
	// t+1 c_t or h_t). zh is one step's Wh·h_{t-1}.
	x, zx, gates, tanhC, cells, hidden, zh []float64
	// dH (T x H), the loss gradient of each h_t, is set before backward.
	// dzT keeps every step's gate gradient dz as a column (4H x T), and xT
	// (D x T) and hT (H x T) the inputs and previous hidden states as rows
	// over time, all latest step first: the weight-gradient GEMM operands.
	dH, dz, dzT, dhNext, dcNext, xT, hT []float64
	xTp, hTp                            packedNT
}

// forward runs the cell over inputs and keeps the trace for backward.
func (p *lstmTrainer) forward(inputs [][]float64) error {
	c := p.c
	T, D, H := len(inputs), c.inputDim, c.hiddenDim
	p.x = growF(p.x, T*D)
	for t, in := range inputs {
		if len(in) != D {
			return fmt.Errorf("brnn: input %d has dim %d, want %d", t, len(in), D)
		}
		if p.reversed {
			t = T - 1 - t
		}
		copy(p.x[t*D:], in)
	}
	p.wx.repack(c.wx.Data, D, 4*H)
	p.wh.repack(c.wh.Data, H, 4*H)
	p.zx = growF(p.zx, T*4*H)
	p.wx.apply(p.zx, p.x, T)
	p.gates = growF(p.gates, T*4*H)
	p.tanhC = growF(p.tanhC, T*H)
	p.cells = growF(p.cells, (T+1)*H)
	p.hidden = growF(p.hidden, (T+1)*H)
	clear(p.cells[:H])
	clear(p.hidden[:H])
	p.zh = growF(p.zh, 4*H)
	for t := 0; t < T; t++ {
		// Wh·0 is +0 here as in the reference MulVec.
		p.wh.apply(p.zh, p.hidden[t*H:(t+1)*H], 1)
		gateRow(p.zx[t*4*H:(t+1)*4*H], p.zh, c.b, p.cells[t*H:(t+1)*H], p.gates[t*4*H:(t+1)*4*H],
			p.cells[(t+1)*H:(t+2)*H], p.tanhC[t*H:(t+1)*H], p.hidden[(t+1)*H:(t+2)*H])
	}
	return nil
}

// backward propagates dH through the trace of the last forward pass of T
// frames and writes the direction's gradients into g, whose bias
// gradient must start at zero. Where the reference skips a term with
// dz = 0, the kernels add it: it is ±0 for a finite operand, and an
// accumulator that starts at +0 is never -0, so the bits do not change.
func (p *lstmTrainer) backward(T int) {
	c, g := p.c, p.g
	D, H := c.inputDim, c.hiddenDim
	p.whT = growF(p.whT, 4*H*H)
	for r := 0; r < 4*H; r++ {
		for j := 0; j < H; j++ {
			p.whT[j*4*H+r] = c.wh.Data[r*H+j]
		}
	}
	p.whTp.repack(p.whT, 4*H, H)
	p.dhNext, p.dcNext = growF(p.dhNext, H), growF(p.dcNext, H)
	clear(p.dhNext)
	clear(p.dcNext)
	p.dz, p.dzT = growF(p.dz, 4*H), growF(p.dzT, 4*H*T)
	dz := p.dz
	for t := T - 1; t >= 0; t-- {
		gates := p.gates[t*4*H : (t+1)*4*H]
		prevC, tanhC, dH := p.cells[t*H:(t+1)*H], p.tanhC[t*H:(t+1)*H], p.dH[t*H:(t+1)*H]
		for j := 0; j < H; j++ {
			dh := dH[j] + p.dhNext[j]
			i, f, gg, o := gates[j], gates[H+j], gates[2*H+j], gates[3*H+j]
			tc := tanhC[j]
			dc := dh*o*(1-tc*tc) + p.dcNext[j]
			dz[j] = dc * gg * i * (1 - i)         // input gate pre-activation
			dz[H+j] = dc * prevC[j] * f * (1 - f) // forget gate
			dz[2*H+j] = dc * i * (1 - gg*gg)      // candidate
			dz[3*H+j] = dh * tc * o * (1 - o)     // output gate
			p.dcNext[j] = dc * f
		}
		for r, v := range dz {
			g.b[r] += v
			p.dzT[r*T+T-1-t] = v
		}
		if t > 0 {
			p.whTp.apply(p.dhNext, dz, 1)
		}
	}
	// Σ_t dz_t·x_tᵀ and Σ_t dz_t·h_{t-1}ᵀ, t from T-1 down to 0.
	p.xT = revTranspose(p.xT, p.x, T, D)
	p.hT = revTranspose(p.hT, p.hidden, T, H)
	p.xTp.repack(p.xT, T, D)
	p.hTp.repack(p.hT, T, H)
	p.xTp.apply(g.wx.Data, p.dzT, 4*H)
	p.hTp.apply(g.wh.Data, p.dzT, 4*H)
}

// revTranspose writes the first T rows of src (cols values each) into dst
// as cols rows over time, last row first: dst[c*T+i] = src[(T-1-i)*cols+c].
func revTranspose(dst, src []float64, T, cols int) []float64 {
	dst = growF(dst, cols*T)
	for i := 0; i < T; i++ {
		for c, v := range src[(T-1-i)*cols : (T-i)*cols] {
			dst[c*T+i] = v
		}
	}
	return dst
}

// params returns the cell's parameter slices for the optimizer.
func (g *lstmGrads) slices() [][]float64 {
	return [][]float64{g.wx.Data, g.wh.Data, g.b}
}
