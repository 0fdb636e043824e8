package brnn

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// backward is the per-frame reference BPTT that Trainer.step ran before
// it moved onto the packed kernels (lstmTrainer.backward): it propagates
// per-timestep hidden-state gradients dH through the trace, accumulating
// parameter gradients into g and returning the gradients with respect to
// the inputs, which the step never used.
func (c *lstmCell) backward(tr *lstmTrace, dH [][]float64, g *lstmGrads) ([][]float64, error) {
	T := len(tr.hidden)
	if len(dH) != T {
		return nil, fmt.Errorf("brnn: dH length %d, want %d", len(dH), T)
	}
	H := c.hiddenDim
	dInputs := make([][]float64, T)
	dhNext := make([]float64, H)
	dcNext := make([]float64, H)
	dz := make([]float64, 4*H)
	tmpH := make([]float64, H)
	tmpX := make([]float64, c.inputDim)
	for t := T - 1; t >= 0; t-- {
		var prevC, prevH []float64
		if t > 0 {
			prevC = tr.cells[t-1]
			prevH = tr.hidden[t-1]
		} else {
			prevC = make([]float64, H)
			prevH = make([]float64, H)
		}
		gates := tr.gates[t]
		for j := 0; j < H; j++ {
			dh := dH[t][j] + dhNext[j]
			i, f, gg, o := gates[j], gates[H+j], gates[2*H+j], gates[3*H+j]
			tc := tr.tanhC[t][j]
			dc := dh*o*(1-tc*tc) + dcNext[j]
			dz[j] = dc * gg * i * (1 - i)         // input gate pre-activation
			dz[H+j] = dc * prevC[j] * f * (1 - f) // forget gate
			dz[2*H+j] = dc * i * (1 - gg*gg)      // candidate
			dz[3*H+j] = dh * tc * o * (1 - o)     // output gate
			dcNext[j] = dc * f
		}
		if err := g.wx.AddOuterScaled(dz, tr.inputs[t], 1); err != nil {
			return nil, err
		}
		if err := g.wh.AddOuterScaled(dz, prevH, 1); err != nil {
			return nil, err
		}
		for j := range dz {
			g.b[j] += dz[j]
		}
		if err := c.wh.MulVecTransposed(dz, tmpH); err != nil {
			return nil, err
		}
		copy(dhNext, tmpH)
		if err := c.wx.MulVecTransposed(dz, tmpX); err != nil {
			return nil, err
		}
		din := make([]float64, c.inputDim)
		copy(din, tmpX)
		dInputs[t] = din
	}
	return dInputs, nil
}

// serialStep is the reference training step: the per-frame forward pass
// (Model.forwardFull), then both directions' per-frame backward passes one
// after the other.
func serialStep(tr *Trainer, seq *Sequence) (float64, error) {
	m := tr.model
	probs, fwdTr, bwdTr, err := m.forwardFull(seq.Inputs)
	if err != nil {
		return 0, err
	}
	T := len(seq.Inputs)
	if T == 0 {
		return 0, nil
	}
	tr.bind()
	tr.zeroGrads()
	H := m.hiddenDim
	loss := 0.0
	dHf := make([][]float64, T)
	dHb := make([][]float64, T)
	combined := make([]float64, H)
	dCombined := make([]float64, H)
	invT := 1 / float64(T)
	for t := 0; t < T; t++ {
		p := probs[t]
		label := seq.Labels[t]
		loss -= math.Log(p[label] + 1e-12)
		dLogits := make([]float64, m.numClasses)
		for k := range p {
			dLogits[k] = p[k] * invT
		}
		dLogits[label] -= invT
		hf := fwdTr.hidden[t]
		hb := bwdTr.hidden[T-1-t]
		for j := 0; j < H; j++ {
			combined[j] = hf[j] + hb[j]
		}
		if err := tr.denseGrad.AddOuterScaled(dLogits, combined, 1); err != nil {
			return 0, err
		}
		for k, v := range dLogits {
			tr.denseBiasGrad[k] += v
		}
		if err := m.dense.MulVecTransposed(dLogits, dCombined); err != nil {
			return 0, err
		}
		df := make([]float64, H)
		db := make([]float64, H)
		copy(df, dCombined)
		copy(db, dCombined)
		dHf[t] = df
		dHb[T-1-t] = db
	}
	if _, err := m.fwd.backward(fwdTr, dHf, tr.fwdGrads); err != nil {
		return 0, err
	}
	if _, err := m.bwd.backward(bwdTr, dHb, tr.bwdGrads); err != nil {
		return 0, err
	}
	if tr.cfg.ClipNorm > 0 {
		clipByGlobalNorm(tr.grads, tr.cfg.ClipNorm)
	}
	if err := tr.opt.Step(tr.params, tr.grads); err != nil {
		return 0, err
	}
	return loss * invT, nil
}

// trainedBytes trains a fresh model of the given architecture on data for
// three epochs and returns its serialized weights and per-step losses,
// stepping through data in order with serialStep or with Trainer.step.
func trainedBytes(t *testing.T, cfg Config, data []Sequence, serial bool) ([]byte, []float64) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := TrainConfig{Epochs: 3, LearningRate: 0.01, ClipNorm: 1, Seed: 2}
	tr, err := NewTrainer(m, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	step := tr.step
	if serial {
		step = func(seq *Sequence) (float64, error) { return serialStep(tr, seq) }
	}
	var losses []float64
	for epoch := 0; epoch < tcfg.Epochs; epoch++ {
		for i := range data {
			l, err := step(&data[i])
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, l)
		}
	}
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b, losses
}

// TestTrainStepBitIdenticalToSerial pins the training step on the packed
// kernels against the per-frame reference step: the model it trains
// serializes to the same bytes, and every step's loss has the same bits,
// at GOMAXPROCS 1 (the directions run one after the other) and 4 (they
// overlap). The cases cover hidden widths below, at and above one 16-lane
// block, the paper's 14 inputs, sequences from one frame to 300 (longer
// ones first, so the shorter ones run on grown buffers), and a small
// three-class model with an empty sequence, which is a no-op step.
func TestTrainStepBitIdenticalToSerial(t *testing.T) {
	type tc struct {
		name string
		cfg  Config
		data []Sequence
	}
	small := tc{name: "6x10x3", cfg: Config{InputDim: 6, HiddenDim: 10, NumClasses: 3, Seed: 5}}
	for i := 0; i < 6; i++ {
		small.data = append(small.data, randomSeq(9+i, 6, 3, int64(40+i)))
	}
	small.data = append(small.data, Sequence{})
	cases := []tc{small}
	for _, h := range []int{10, 32, 64} {
		c := tc{name: fmt.Sprintf("14x%dx2", h), cfg: Config{InputDim: 14, HiddenDim: h, NumClasses: 2, Seed: int64(h)}}
		for i, T := range []int{300, 17, 2, 1} {
			c.data = append(c.data, randomSeq(T, 14, 2, int64(h+i)))
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantLoss := trainedBytes(t, c.cfg, c.data, true)
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got, gotLoss := trainedBytes(t, c.cfg, c.data, false)
				runtime.GOMAXPROCS(prev)
				if !bytes.Equal(got, want) {
					t.Errorf("GOMAXPROCS %d: trained model bytes differ from the serial step", procs)
				}
				for i := range wantLoss {
					if math.Float64bits(gotLoss[i]) != math.Float64bits(wantLoss[i]) {
						t.Fatalf("GOMAXPROCS %d: step %d loss %v, serial %v", procs, i, gotLoss[i], wantLoss[i])
					}
				}
			}
		})
	}
}

// TestTrainStepAfterUnmarshal checks that a Trainer keeps training its
// model after Model.UnmarshalBinary replaces the model's weight arrays:
// one step, a load of other weights, and a second step leave the same
// bytes as the serial step does, and not the loaded ones.
func TestTrainStepAfterUnmarshal(t *testing.T) {
	cfg := Config{InputDim: 6, HiddenDim: 10, NumClasses: 3, Seed: 5}
	other, err := New(Config{InputDim: 6, HiddenDim: 10, NumClasses: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	a, b := randomSeq(12, 6, 3, 1), randomSeq(9, 6, 3, 2)
	run := func(serial bool) []byte {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTrainer(m, TrainConfig{Epochs: 1, LearningRate: 0.01, ClipNorm: 1, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		step := tr.step
		if serial {
			step = func(seq *Sequence) (float64, error) { return serialStep(tr, seq) }
		}
		if _, err := step(&a); err != nil {
			t.Fatal(err)
		}
		if err := m.UnmarshalBinary(loaded); err != nil {
			t.Fatal(err)
		}
		if _, err := step(&b); err != nil {
			t.Fatal(err)
		}
		out, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := run(false), run(true)
	if bytes.Equal(got, loaded) {
		t.Fatal("the step after UnmarshalBinary left the loaded weights untouched")
	}
	if !bytes.Equal(got, want) {
		t.Error("the step after UnmarshalBinary differs from the serial step")
	}
}

// TestTrainStepSteadyStateAllocations checks that a step on buffers
// already grown to the sequence allocates only for forking the second
// direction, a count that does not depend on the sequence length.
func TestTrainStepSteadyStateAllocations(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(m, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	long, short := randomSeq(120, 14, 2, 1), randomSeq(40, 14, 2, 2)
	if _, err := tr.step(&long); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []*Sequence{&long, &short} {
		avg := testing.AllocsPerRun(10, func() {
			if _, err := tr.step(seq); err != nil {
				t.Fatal(err)
			}
		})
		if avg > maxStepAllocs {
			t.Errorf("T=%d: %.1f allocs per step, want <= %d", len(seq.Inputs), avg, maxStepAllocs)
		}
	}
}

// maxStepAllocs bounds a steady-state step's allocations: each of its two
// forks of the directions allocates the goroutine's closure, its captured
// error, its done channel and the closure it runs.
const maxStepAllocs = 8
