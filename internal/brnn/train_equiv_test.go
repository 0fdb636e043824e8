package brnn

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// serialStep is Trainer.step as it ran before the two directions were
// split across goroutines: the reference forward pass, then both backward
// passes one after the other.
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
		clipByGlobalNorm(tr.grads(), tr.cfg.ClipNorm)
	}
	if err := tr.opt.Step(tr.params(), tr.grads()); err != nil {
		return 0, err
	}
	return loss * invT, nil
}

// trainedBytes trains a fresh model on data and returns its serialized
// weights and per-step losses, stepping through data in order with
// serialStep or with Trainer.step.
func trainedBytes(t *testing.T, data []Sequence, serial bool) ([]byte, []float64) {
	t.Helper()
	m, err := New(Config{InputDim: 6, HiddenDim: 10, NumClasses: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 3, LearningRate: 0.01, ClipNorm: 1, Seed: 2}
	tr, err := NewTrainer(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := tr.step
	if serial {
		step = func(seq *Sequence) (float64, error) { return serialStep(tr, seq) }
	}
	var losses []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
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

// TestTrainStepBitIdenticalToSerial pins the concurrent training step: the
// model it trains serializes to the same bytes as one trained by the
// serial step, at GOMAXPROCS 1 (the directions run one after the other)
// and 4 (they overlap), and every step's loss has the same bits.
func TestTrainStepBitIdenticalToSerial(t *testing.T) {
	var data []Sequence
	for i := 0; i < 6; i++ {
		data = append(data, randomSeq(9+i, 6, 3, int64(40+i)))
	}
	data = append(data, Sequence{}) // an empty sequence is a no-op step
	want, wantLoss := trainedBytes(t, data, true)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got, gotLoss := trainedBytes(t, data, false)
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
}
