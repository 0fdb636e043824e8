package brnn

import (
	"fmt"
	"math"
	"math/rand"
)

// Adam is the Adam optimizer over a flat list of parameter slices.
type Adam struct {
	lr, beta1, beta2, eps float64
	t                     int
	m, v                  [][]float64
}

// NewAdam creates an optimizer for the given parameter slices with
// standard hyperparameters.
func NewAdam(params [][]float64, lr float64) *Adam {
	a := &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p))
		a.v[i] = make([]float64, len(p))
	}
	return a
}

// Step applies one Adam update: params -= lr * mhat / (sqrt(vhat)+eps).
func (a *Adam) Step(params, grads [][]float64) error {
	if len(params) != len(a.m) || len(grads) != len(a.m) {
		return fmt.Errorf("brnn: adam group count mismatch")
	}
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range params {
		g := grads[i]
		if len(p) != len(a.m[i]) || len(g) != len(a.m[i]) {
			return fmt.Errorf("brnn: adam param %d size mismatch", i)
		}
		m, v := a.m[i], a.v[i]
		for j := range p {
			m[j] = a.beta1*m[j] + (1-a.beta1)*g[j]
			v[j] = a.beta2*v[j] + (1-a.beta2)*g[j]*g[j]
			p[j] -= a.lr * (m[j] / bc1) / (math.Sqrt(v[j]/bc2) + a.eps)
		}
	}
	return nil
}

// Sequence is one training example: a feature sequence with per-frame
// class labels.
type Sequence struct {
	// Inputs[t] is the feature vector of frame t.
	Inputs [][]float64
	// Labels[t] is the class of frame t.
	Labels []int
}

// Validate checks shape consistency against a model and that every
// feature is finite: one NaN would turn every trained weight into NaN.
func (s *Sequence) Validate(m *Model) error {
	if len(s.Inputs) != len(s.Labels) {
		return fmt.Errorf("brnn: sequence has %d inputs but %d labels", len(s.Inputs), len(s.Labels))
	}
	for t, in := range s.Inputs {
		if len(in) != m.InputDim() {
			return fmt.Errorf("brnn: frame %d has dim %d, want %d", t, len(in), m.InputDim())
		}
		for d, v := range in {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("brnn: frame %d dim %d is %v, want a finite feature", t, d, v)
			}
		}
		if s.Labels[t] < 0 || s.Labels[t] >= m.NumClasses() {
			return fmt.Errorf("brnn: frame %d label %d outside [0, %d)", t, s.Labels[t], m.NumClasses())
		}
	}
	return nil
}

// TrainConfig controls training.
type TrainConfig struct {
	// Epochs over the training set.
	Epochs int
	// LearningRate for Adam.
	LearningRate float64
	// ClipNorm is the global gradient-norm clip (0 disables).
	ClipNorm float64
	// Seed shuffles the training order.
	Seed int64
}

// DefaultTrainConfig returns sensible defaults for phoneme detection.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 8, LearningRate: 0.004, ClipNorm: 5, Seed: 1}
}

// Trainer runs BPTT training on a model.
type Trainer struct {
	model *Model
	cfg   TrainConfig
	opt   *Adam

	fwdGrads, bwdGrads *lstmGrads
	denseGrad          *Matrix
	denseBiasGrad      []float64
	// params and grads list the parameter and gradient slices in the one
	// order that Adam and the gradient clip walk.
	params, grads [][]float64

	// Step scratch: each direction's pass, the dense layer packed for the
	// kernels, the combined hidden states (T x H), the probabilities
	// (T x C) and one frame's logit gradient (C).
	fwd, bwd             *lstmTrainer
	dense                packedNT
	comb, probs, dLogits []float64
}

// NewTrainer creates a trainer bound to a model.
func NewTrainer(m *Model, cfg TrainConfig) (*Trainer, error) {
	if cfg.Epochs <= 0 || cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("brnn: invalid train config %+v", cfg)
	}
	tr := &Trainer{
		model:         m,
		cfg:           cfg,
		fwdGrads:      newLSTMGrads(m.fwd),
		bwdGrads:      newLSTMGrads(m.bwd),
		denseGrad:     NewMatrix(m.dense.Rows, m.dense.Cols),
		denseBiasGrad: make([]float64, len(m.denseBias)),
		dLogits:       make([]float64, m.numClasses),
	}
	tr.fwd = &lstmTrainer{g: tr.fwdGrads}
	tr.bwd = &lstmTrainer{g: tr.bwdGrads, reversed: true}
	tr.bind()
	tr.grads = append(append(tr.fwdGrads.slices(), tr.bwdGrads.slices()...), tr.denseGrad.Data, tr.denseBiasGrad)
	tr.opt = NewAdam(tr.params, cfg.LearningRate)
	return tr, nil
}

// bind points the passes and Adam's parameter list at the model's arrays,
// which Model.UnmarshalBinary replaces; every step binds before it starts.
func (tr *Trainer) bind() {
	m := tr.model
	tr.fwd.c, tr.bwd.c = m.fwd, m.bwd
	tr.params = append(tr.params[:0], m.fwd.wx.Data, m.fwd.wh.Data, m.fwd.b,
		m.bwd.wx.Data, m.bwd.wh.Data, m.bwd.b, m.dense.Data, m.denseBias)
}

func (tr *Trainer) zeroGrads() {
	for _, g := range tr.grads {
		clear(g)
	}
}

// both runs f for the forward direction on one forked goroutine and for
// the backward direction on the caller's and, once both have finished,
// returns the forward direction's error or else the backward one's.
func (tr *Trainer) both(f func(p *lstmTrainer) error) error {
	var errF error
	done := make(chan struct{})
	go func() {
		defer close(done)
		errF = f(tr.fwd)
	}()
	errB := f(tr.bwd)
	<-done
	if errF != nil {
		return errF
	}
	return errB
}

// step runs forward+backward on one sequence and applies an update,
// returning the mean cross-entropy loss. It runs on the packed kernels
// (see lstmTrainer), and the two LSTM directions, independent until the
// dense layer sums them and accumulating into separate gradients, run
// concurrently in each pass. Every value is computed as in the per-frame
// reference step, so the update is bit-identical to it;
// TestTrainStepBitIdenticalToSerial pins this.
func (tr *Trainer) step(seq *Sequence) (float64, error) {
	m := tr.model
	T := len(seq.Inputs)
	if T == 0 {
		return 0, nil
	}
	tr.bind()
	fwd, bwd := tr.fwd, tr.bwd
	if err := tr.both(func(p *lstmTrainer) error { return p.forward(seq.Inputs) }); err != nil {
		return 0, err
	}
	H, C := m.hiddenDim, m.numClasses
	tr.comb = growF(tr.comb, T*H)
	for t := 0; t < T; t++ {
		hf := fwd.hidden[(t+1)*H : (t+2)*H]
		hb := bwd.hidden[(T-t)*H : (T-t+1)*H]
		dst := tr.comb[t*H : (t+1)*H]
		for j := range dst {
			dst[j] = hf[j] + hb[j]
		}
	}
	tr.dense.repack(m.dense.Data, H, C)
	tr.probs = growF(tr.probs, T*C)
	tr.dense.apply(tr.probs, tr.comb, T)
	tr.zeroGrads()
	fwd.dH = growF(fwd.dH, T*H)
	bwd.dH = growF(bwd.dH, T*H)
	loss := 0.0
	invT := 1 / float64(T)
	dLogits := tr.dLogits
	for t := 0; t < T; t++ {
		p := tr.probs[t*C : (t+1)*C]
		softmax(p, m.denseBias)
		label := seq.Labels[t]
		loss -= math.Log(p[label] + 1e-12)
		// dL/dlogit_k = (p_k - y_k) / T.
		for k := range p {
			dLogits[k] = p[k] * invT
		}
		dLogits[label] -= invT
		if err := tr.denseGrad.AddOuterScaled(dLogits, tr.comb[t*H:(t+1)*H], 1); err != nil {
			return 0, err
		}
		for k, v := range dLogits {
			tr.denseBiasGrad[k] += v
		}
		dCombined := fwd.dH[t*H : (t+1)*H]
		if err := m.dense.MulVecTransposed(dLogits, dCombined); err != nil {
			return 0, err
		}
		copy(bwd.dH[(T-1-t)*H:], dCombined)
	}
	// BPTT cannot fail: the forward pass checked every shape.
	_ = tr.both(func(p *lstmTrainer) error {
		p.backward(T)
		return nil
	})
	if tr.cfg.ClipNorm > 0 {
		clipByGlobalNorm(tr.grads, tr.cfg.ClipNorm)
	}
	if err := tr.opt.Step(tr.params, tr.grads); err != nil {
		return 0, err
	}
	return loss * invT, nil
}

func clipByGlobalNorm(grads [][]float64, maxNorm float64) {
	total := 0.0
	for _, g := range grads {
		for _, v := range g {
			total += v * v
		}
	}
	norm := math.Sqrt(total)
	if norm <= maxNorm {
		return
	}
	scale := maxNorm / norm
	for _, g := range grads {
		for j := range g {
			g[j] *= scale
		}
	}
}

// Train fits the model on the given sequences, returning the mean loss of
// each epoch.
func (tr *Trainer) Train(data []Sequence) ([]float64, error) {
	for i := range data {
		if err := data[i].Validate(tr.model); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(tr.cfg.Seed))
	losses := make([]float64, 0, tr.cfg.Epochs)
	order := make([]int, len(data))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < tr.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		sum := 0.0
		for _, idx := range order {
			l, err := tr.step(&data[idx])
			if err != nil {
				return nil, fmt.Errorf("brnn: epoch %d: %w", epoch, err)
			}
			sum += l
		}
		if len(data) > 0 {
			sum /= float64(len(data))
		}
		losses = append(losses, sum)
	}
	return losses, nil
}

// Evaluate returns frame-level accuracy of the model on labeled sequences.
// One inference session (and one prediction buffer) is reused across the
// whole pass, so evaluation runs on the batched kernels without
// per-sequence allocations; predictions are bit-identical to
// Model.Predict.
func Evaluate(m *Model, data []Sequence) (float64, error) {
	correct, total := 0, 0
	inf := m.NewInference()
	var pred []int
	for i := range data {
		if err := data[i].Validate(m); err != nil {
			return 0, err
		}
		var err error
		pred, err = inf.Predict(data[i].Inputs, pred)
		if err != nil {
			return 0, err
		}
		for t, p := range pred {
			if p == data[i].Labels[t] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(correct) / float64(total), nil
}
