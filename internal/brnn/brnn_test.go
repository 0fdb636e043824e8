package brnn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatrixOps(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(0, 2, 3)
	m.Set(1, 0, 4)
	m.Set(1, 1, 5)
	m.Set(1, 2, 6)
	out := make([]float64, 2)
	if err := m.MulVec([]float64{1, 1, 1}, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 6 || out[1] != 15 {
		t.Errorf("MulVec = %v", out)
	}
	outT := make([]float64, 3)
	if err := m.MulVecTransposed([]float64{1, 1}, outT); err != nil {
		t.Fatal(err)
	}
	if outT[0] != 5 || outT[1] != 7 || outT[2] != 9 {
		t.Errorf("MulVecTransposed = %v", outT)
	}
	if err := m.MulVec([]float64{1}, out); err == nil {
		t.Error("shape mismatch should error")
	}
	if err := m.MulVecTransposed([]float64{1}, outT); err == nil {
		t.Error("transposed shape mismatch should error")
	}
	g := NewMatrix(2, 3)
	if err := g.AddOuterScaled([]float64{1, 2}, []float64{3, 4, 5}, 2); err != nil {
		t.Fatal(err)
	}
	if g.At(1, 2) != 20 {
		t.Errorf("outer(1,2) = %v, want 20", g.At(1, 2))
	}
	if err := g.AddOuterScaled([]float64{1}, []float64{1, 1, 1}, 1); err == nil {
		t.Error("outer shape mismatch should error")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
	c.Zero()
	if c.At(1, 1) != 0 {
		t.Error("Zero failed")
	}
}

func TestSigmoidProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		s := sigmoid(x)
		if s < 0 || s > 1 || math.IsNaN(s) {
			return false
		}
		// Symmetry: sigmoid(-x) = 1 - sigmoid(x).
		return math.Abs(sigmoid(-x)-(1-s)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestModelConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{InputDim: 0, HiddenDim: 8, NumClasses: 2},
		{InputDim: 4, HiddenDim: 0, NumClasses: 2},
		{InputDim: 4, HiddenDim: 8, NumClasses: 1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.InputDim() != 14 || m.HiddenDim() != 64 || m.NumClasses() != 2 {
		t.Error("default architecture mismatch")
	}
}

func TestForwardShapes(t *testing.T) {
	m, err := New(Config{InputDim: 4, HiddenDim: 8, NumClasses: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq := randomSeq(10, 4, 3, 1)
	probs, err := m.Forward(seq.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 10 {
		t.Fatalf("probs len = %d", len(probs))
	}
	for t2, p := range probs {
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("prob out of range at %d: %v", t2, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probs at %d sum to %v", t2, sum)
		}
	}
	// Empty sequence.
	probs, err = m.Forward(nil)
	if err != nil || probs != nil {
		t.Errorf("empty forward: %v, %v", probs, err)
	}
	// Wrong input dim.
	if _, err := m.Forward([][]float64{{1, 2}}); err == nil {
		t.Error("wrong input dim should error")
	}
}

func TestBidirectionalUsesFutureContext(t *testing.T) {
	// A BRNN's output at t=0 must depend on later frames; a pure forward
	// RNN's would not.
	m, err := New(Config{InputDim: 2, HiddenDim: 8, NumClasses: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seqA := [][]float64{{0.5, 0.5}, {0.1, 0.1}, {0.1, 0.1}}
	seqB := [][]float64{{0.5, 0.5}, {0.9, -0.9}, {-0.9, 0.9}}
	pa, err := m.Forward(seqA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := m.Forward(seqB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pa[0][0]-pb[0][0]) < 1e-9 {
		t.Error("output at t=0 ignores future frames; backward direction broken")
	}
}

// randomSeq builds a toy sequence where the label is determined by which
// input coordinate is larger — linearly separable per frame.
func randomSeq(T, dim, classes int, seed int64) Sequence {
	rng := rand.New(rand.NewSource(seed))
	s := Sequence{Inputs: make([][]float64, T), Labels: make([]int, T)}
	for t := 0; t < T; t++ {
		x := make([]float64, dim)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		label := t % classes
		x[label] += 2.5 // strong class signal on one coordinate
		s.Inputs[t] = x
		s.Labels[t] = label
	}
	return s
}

func TestTrainingLearnsSeparableTask(t *testing.T) {
	m, err := New(Config{InputDim: 4, HiddenDim: 12, NumClasses: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var data []Sequence
	for i := 0; i < 24; i++ {
		data = append(data, randomSeq(15, 4, 2, int64(i)))
	}
	before, err := Evaluate(m, data)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(m, TrainConfig{Epochs: 12, LearningRate: 0.01, ClipNorm: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	losses, err := tr.Train(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 12 {
		t.Fatalf("losses = %d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	after, err := Evaluate(m, data)
	if err != nil {
		t.Fatal(err)
	}
	if after < 0.9 {
		t.Errorf("training accuracy = %v, want >= 0.9 (before: %v)", after, before)
	}
	if after <= before {
		t.Errorf("accuracy did not improve: %v -> %v", before, after)
	}
}

func TestGradientCheckDense(t *testing.T) {
	// Numerical gradient check on a tiny model: perturb one dense weight
	// and compare loss delta to the analytic gradient.
	m, err := New(Config{InputDim: 3, HiddenDim: 4, NumClasses: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	seq := randomSeq(5, 3, 2, 99)
	lossOf := func() float64 {
		probs, err := m.Forward(seq.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		loss := 0.0
		for t2, p := range probs {
			loss -= math.Log(p[seq.Labels[t2]] + 1e-12)
		}
		return loss / float64(len(probs))
	}
	// Analytic gradient via one trainer step with a tiny LR and inspecting
	// the accumulated gradient.
	tr, err := NewTrainer(m, TrainConfig{Epochs: 1, LearningRate: 1e-9, ClipNorm: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.step(&seq); err != nil {
		t.Fatal(err)
	}
	analytic := tr.denseGrad.At(0, 0)
	const h = 1e-5
	orig := m.dense.At(0, 0)
	m.dense.Set(0, 0, orig+h)
	lossPlus := lossOf()
	m.dense.Set(0, 0, orig-h)
	lossMinus := lossOf()
	m.dense.Set(0, 0, orig)
	numeric := (lossPlus - lossMinus) / (2 * h)
	if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
		t.Errorf("dense gradient mismatch: numeric %v, analytic %v", numeric, analytic)
	}
}

func TestGradientCheckLSTM(t *testing.T) {
	m, err := New(Config{InputDim: 3, HiddenDim: 4, NumClasses: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	seq := randomSeq(6, 3, 2, 55)
	lossOf := func() float64 {
		probs, err := m.Forward(seq.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		loss := 0.0
		for t2, p := range probs {
			loss -= math.Log(p[seq.Labels[t2]] + 1e-12)
		}
		return loss / float64(len(probs))
	}
	tr, err := NewTrainer(m, TrainConfig{Epochs: 1, LearningRate: 1e-12, ClipNorm: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.step(&seq); err != nil {
		t.Fatal(err)
	}
	// Check several weights in the forward LSTM's input matrix.
	for _, idx := range []int{0, 5, 17, 30} {
		analytic := tr.fwdGrads.wx.Data[idx]
		const h = 1e-5
		orig := m.fwd.wx.Data[idx]
		m.fwd.wx.Data[idx] = orig + h
		lossPlus := lossOf()
		m.fwd.wx.Data[idx] = orig - h
		lossMinus := lossOf()
		m.fwd.wx.Data[idx] = orig
		numeric := (lossPlus - lossMinus) / (2 * h)
		if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("wx[%d] gradient mismatch: numeric %v, analytic %v", idx, numeric, analytic)
		}
	}
}

func TestSequenceValidate(t *testing.T) {
	m, err := New(Config{InputDim: 3, HiddenDim: 4, NumClasses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := Sequence{Inputs: [][]float64{{1, 2, 3}}, Labels: []int{0, 1}}
	if err := bad.Validate(m); err == nil {
		t.Error("length mismatch should error")
	}
	bad = Sequence{Inputs: [][]float64{{1, 2}}, Labels: []int{0}}
	if err := bad.Validate(m); err == nil {
		t.Error("dim mismatch should error")
	}
	bad = Sequence{Inputs: [][]float64{{1, 2, 3}}, Labels: []int{5}}
	if err := bad.Validate(m); err == nil {
		t.Error("label out of range should error")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = Sequence{Inputs: [][]float64{{1, 2, 3}, {4, v, 6}}, Labels: []int{0, 1}}
		err := bad.Validate(m)
		if err == nil || !strings.Contains(err.Error(), "frame 1 dim 1") {
			t.Errorf("feature %v: error %v, want one naming frame 1 dim 1", v, err)
		}
	}
}

// A non-finite feature fails Train before any step, so the model keeps
// its weights instead of turning them all into NaN.
func TestTrainRejectsNonFiniteFeatures(t *testing.T) {
	m, err := New(Config{InputDim: 3, HiddenDim: 4, NumClasses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(m, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	good := randomSeq(5, 3, 2, 1)
	bad := randomSeq(5, 3, 2, 2)
	bad.Inputs[2][0] = math.NaN()
	if losses, err := tr.Train([]Sequence{good, bad}); err == nil {
		t.Fatalf("Train accepted a NaN feature: losses %v", losses)
	}
	after, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a rejected training set changed the weights")
	}
}

func TestTrainerConfigValidation(t *testing.T) {
	m, err := New(Config{InputDim: 3, HiddenDim: 4, NumClasses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrainer(m, TrainConfig{Epochs: 0, LearningRate: 0.01}); err == nil {
		t.Error("zero epochs should error")
	}
	if _, err := NewTrainer(m, TrainConfig{Epochs: 1, LearningRate: 0}); err == nil {
		t.Error("zero LR should error")
	}
}

func TestAdamStepMismatch(t *testing.T) {
	params := [][]float64{make([]float64, 4)}
	opt := NewAdam(params, 0.01)
	if err := opt.Step(params, [][]float64{make([]float64, 3)}); err == nil {
		t.Error("grad size mismatch should error")
	}
	if err := opt.Step([][]float64{}, [][]float64{}); err == nil {
		t.Error("group count mismatch should error")
	}
}

func TestAdamConverges(t *testing.T) {
	// Minimize (x-3)^2 with Adam.
	x := []float64{0}
	opt := NewAdam([][]float64{x}, 0.1)
	for i := 0; i < 500; i++ {
		g := []float64{2 * (x[0] - 3)}
		if err := opt.Step([][]float64{x}, [][]float64{g}); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(x[0]-3) > 0.05 {
		t.Errorf("Adam converged to %v, want 3", x[0])
	}
}

func TestClipByGlobalNorm(t *testing.T) {
	g := [][]float64{{3, 4}} // norm 5
	clipByGlobalNorm(g, 1)
	norm := math.Hypot(g[0][0], g[0][1])
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("clipped norm = %v", norm)
	}
	// No clipping below the threshold.
	g = [][]float64{{0.3, 0.4}}
	clipByGlobalNorm(g, 1)
	if g[0][0] != 0.3 {
		t.Error("small gradient should be untouched")
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	m, err := New(Config{InputDim: 4, HiddenDim: 6, NumClasses: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	seq := randomSeq(8, 4, 2, 5)
	want, err := m.Forward(seq.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Model
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Forward(seq.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := range want {
		for k := range want[t2] {
			if math.Abs(want[t2][k]-got[t2][k]) > 1e-12 {
				t.Fatalf("restored model diverges at frame %d class %d", t2, k)
			}
		}
	}
	if err := restored.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Error("garbage decode should error")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m, err := New(Config{InputDim: 3, HiddenDim: 4, NumClasses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Evaluate(m, nil)
	if err != nil || acc != 0 {
		t.Errorf("empty evaluate: %v, %v", acc, err)
	}
}
