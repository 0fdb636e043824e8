package brnn

import "fmt"

// Inference is a reusable inference session for one Model: it owns every
// scratch buffer the batched forward pass needs, so steady-state inference
// allocates nothing. The model weights are read-only and may be shared by
// any number of sessions; one Inference must only be used by one goroutine
// at a time (pool sessions across workers — see segment.Detector — rather
// than locking one).
//
// Compared to the per-frame reference path (Model.Forward), the session
// computes the input projections Wx·x_t of all timesteps of all sequences
// in one pass per direction over SIMD-packed weights (see packNT), keeps
// the recurrent step allocation-free with hoisted gate/cell buffers, and
// batches the recurrent projection Wh·h_{t-1} across the sequences of a
// ForwardBatch call so the weight matrices are traversed once per timestep
// instead of once per sequence per timestep. Every accumulation runs in
// the same order as the reference kernels, so the results are bit-exact —
// TestInferenceMatchesReference pins this the way dspbench pins the
// legacy FFT.
type Inference struct {
	m *Model

	// Weight matrices packed for the SIMD kernel (see packNT): Wx and Wh
	// per direction plus the dense head. Read-only after NewInference.
	pfx, pbx packedNT
	pfh, pbh packedNT
	pd       packedNT

	// Packed inputs in ragged time-major order (forward and time-reversed),
	// and their input projections X·Wxᵀ per direction.
	xf, xr []float64 // N x D
	zf, zb []float64 // N x 4H
	// Hidden states per direction in the same ragged time-major layout:
	// the rows of timestep t are the active sequences, longest first, so
	// the previous step's hidden block is contiguous for the batched
	// recurrent projection.
	hf, hb []float64 // N x H
	// Per-step recurrence scratch (B = batch size).
	zh    []float64 // B x 4H recurrent pre-activations
	cells []float64 // B x H cell states, overwritten in place per step
	gates []float64 // 4H gate values of one row (gateRow's output, unread)
	tc    []float64 // H tanh c_t of one row (likewise)
	// Dense head scratch: combined hidden states in sequence-major output
	// order, then logits+bias and probabilities per frame.
	comb  []float64   // N x H
	probs []float64   // N x C
	prows [][]float64 // row headers into probs
	out   [][][]float64

	// Batch bookkeeping: sequence order sorted by length descending
	// (stable), per-step ragged row offsets, per-sequence output bases.
	order []int
	off   []int
	base  []int
}

// NewInference creates an inference session bound to the model, packing
// the weight matrices into the SIMD kernel's interleaved layout (a
// snapshot: create sessions after training, not between training steps).
// The per-call scratch grows lazily.
func (m *Model) NewInference() *Inference {
	D, H := m.inputDim, m.hiddenDim
	return &Inference{
		m:   m,
		pfx: packNT(m.fwd.wx.Data, D, 4*H),
		pbx: packNT(m.bwd.wx.Data, D, 4*H),
		pfh: packNT(m.fwd.wh.Data, H, 4*H),
		pbh: packNT(m.bwd.wh.Data, H, 4*H),
		pd:  packNT(m.dense.Data, H, m.numClasses),
	}
}

// Model returns the model the session is bound to.
func (inf *Inference) Model() *Model { return inf.m }

// growF ensures a float64 scratch slice has length n.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growI ensures an int scratch slice has length n.
func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Forward computes per-frame class probabilities for one sequence on the
// batched kernels. The returned rows point into the session's scratch:
// they are valid until the next call on this session. Results are
// bit-identical to Model.Forward.
func (inf *Inference) Forward(inputs [][]float64) ([][]float64, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	out, err := inf.ForwardBatch([][][]float64{inputs})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Predict returns the argmax class per frame, appending into dst (pass a
// reused slice for allocation-free steady state). Results are
// bit-identical to Model.Predict.
func (inf *Inference) Predict(inputs [][]float64, dst []int) ([]int, error) {
	probs, err := inf.Forward(inputs)
	if err != nil {
		return nil, err
	}
	dst = dst[:0]
	for _, p := range probs {
		best := 0
		for k, v := range p {
			if v > p[best] {
				best = k
			}
		}
		dst = append(dst, best)
	}
	return dst, nil
}

// ForwardBatch computes per-frame class probabilities for several
// sequences at once. The input projections of every frame of every
// sequence go through one blocked pass per direction, and the recurrent
// projections are batched across sequences per timestep, so concurrent
// sessions handed to one session amortize the weight traversal. Sequences
// may have different lengths (including zero, which yields a nil entry,
// matching Model.Forward on an empty sequence). The returned slices point
// into the session's scratch and are valid until the next call. Each
// sequence's result is bit-identical to Model.Forward on that sequence.
func (inf *Inference) ForwardBatch(seqs [][][]float64) ([][][]float64, error) {
	m := inf.m
	B := len(seqs)
	if B == 0 {
		return nil, nil
	}
	D, H, C := m.inputDim, m.hiddenDim, m.numClasses

	// Order sequences by length descending (stable insertion sort on
	// scratch): the active set of any timestep is then a prefix, which
	// keeps the previous hidden block contiguous as short sequences
	// drop out.
	inf.order = growI(inf.order, B)
	order := inf.order
	for i := range order {
		order[i] = i
	}
	for i := 1; i < B; i++ {
		for j := i; j > 0 && len(seqs[order[j]]) > len(seqs[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	maxT := len(seqs[order[0]])
	if maxT == 0 {
		inf.out = inf.out[:0]
		for range seqs {
			inf.out = append(inf.out, nil)
		}
		return inf.out, nil
	}

	// Ragged time-major offsets: off[t] is the packed row index of the
	// first active sequence at timestep t; active counts are recovered as
	// off[t+1]-off[t]. base[b] is sequence b's first row in the
	// sequence-major output layout.
	inf.off = growI(inf.off, maxT+1)
	off := inf.off
	inf.base = growI(inf.base, B+1)
	base := inf.base
	N := 0
	base[0] = 0
	for i := 0; i < B; i++ {
		N += len(seqs[i])
		base[i+1] = base[i] + len(seqs[i])
	}
	off[0] = 0
	active := B
	for t := 0; t < maxT; t++ {
		for active > 0 && len(seqs[order[active-1]]) <= t {
			active--
		}
		off[t+1] = off[t] + active
	}

	// Pack the inputs: xf in time order, xr time-reversed, both ragged
	// time-major. Dimension validation happens here, once per frame.
	inf.xf = growF(inf.xf, N*D)
	inf.xr = growF(inf.xr, N*D)
	for t := 0; t < maxT; t++ {
		act := off[t+1] - off[t]
		for pos := 0; pos < act; pos++ {
			b := order[pos]
			seq := seqs[b]
			in := seq[t]
			if len(in) != D {
				return nil, fmt.Errorf("brnn: seq %d input %d has dim %d, want %d", b, t, len(in), D)
			}
			copy(inf.xf[(off[t]+pos)*D:], in)
			copy(inf.xr[(off[t]+pos)*D:], seq[len(seq)-1-t])
		}
	}

	// Input projections for all frames of all sequences: one blocked pass
	// per direction.
	inf.zf = growF(inf.zf, N*4*H)
	inf.zb = growF(inf.zb, N*4*H)
	inf.pfx.apply(inf.zf, inf.xf, N)
	inf.pbx.apply(inf.zb, inf.xr, N)

	// Recurrences. The backward direction runs on the reversed packing
	// with the same ragged layout, so one routine serves both.
	inf.zh = growF(inf.zh, B*4*H)
	inf.cells = growF(inf.cells, B*H)
	inf.hf = growF(inf.hf, N*H)
	inf.hb = growF(inf.hb, N*H)
	inf.recur(m.fwd, &inf.pfh, inf.zf, inf.hf, off, maxT)
	inf.recur(m.bwd, &inf.pbh, inf.zb, inf.hb, off, maxT)

	// Combine the directions per frame into sequence-major order: sequence
	// b sits at a fixed position pos in every timestep it is active for,
	// so its forward row at time t is off[t]+pos and its backward row is
	// off[T-1-t]+pos.
	inf.comb = growF(inf.comb, N*H)
	for pos, b := range order {
		T := len(seqs[b])
		for t := 0; t < T; t++ {
			hfRow := inf.hf[(off[t]+pos)*H : (off[t]+pos)*H+H]
			hbRow := inf.hb[(off[T-1-t]+pos)*H : (off[T-1-t]+pos)*H+H]
			dst := inf.comb[(base[b]+t)*H : (base[b]+t)*H+H]
			for j := 0; j < H; j++ {
				dst[j] = hfRow[j] + hbRow[j]
			}
		}
	}

	// Dense head over every frame in one blocked pass, then the softmax of
	// the reference path.
	inf.probs = growF(inf.probs, N*C)
	inf.pd.apply(inf.probs, inf.comb, N)
	if cap(inf.prows) < N {
		inf.prows = make([][]float64, N)
	}
	inf.prows = inf.prows[:N]
	bias := m.denseBias
	for i := 0; i < N; i++ {
		p := inf.probs[i*C : i*C+C]
		softmax(p, bias)
		inf.prows[i] = p
	}

	inf.out = inf.out[:0]
	for b := range seqs {
		if len(seqs[b]) == 0 {
			inf.out = append(inf.out, nil)
			continue
		}
		inf.out = append(inf.out, inf.prows[base[b]:base[b+1]])
	}
	return inf.out, nil
}

// recur runs one direction's LSTM recurrence over the ragged time-major
// pre-activations zx, writing hidden states into h. The recurrent
// projection of each step covers every active sequence in one blocked
// pass over wh. gateRow's arithmetic matches lstmCell.forward expression
// for expression, so each hidden state is bit-identical to the reference.
func (inf *Inference) recur(c *lstmCell, wh *packedNT, zx, h []float64, off []int, maxT int) {
	H := c.hiddenDim
	inf.gates, inf.tc = growF(inf.gates, 4*H), growF(inf.tc, H)
	for t := 0; t < maxT; t++ {
		act := off[t+1] - off[t]
		if t == 0 {
			// Wh · 0 is exactly +0 in the reference too.
			clear(inf.zh[:act*4*H])
			clear(inf.cells[:act*H])
		} else {
			prevH := h[off[t-1]*H : (off[t-1]+act)*H]
			wh.apply(inf.zh, prevH, act)
		}
		for pos := 0; pos < act; pos++ {
			row := off[t] + pos
			cell := inf.cells[pos*H : pos*H+H]
			gateRow(zx[row*4*H:row*4*H+4*H], inf.zh[pos*4*H:pos*4*H+4*H], c.b, cell, inf.gates, cell, inf.tc, h[row*H:row*H+H])
		}
	}
}
