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

// Validate checks shape consistency against a model.
func (s *Sequence) Validate(m *Model) error {
	if len(s.Inputs) != len(s.Labels) {
		return fmt.Errorf("brnn: sequence has %d inputs but %d labels", len(s.Inputs), len(s.Labels))
	}
	for t, in := range s.Inputs {
		if len(in) != m.InputDim() {
			return fmt.Errorf("brnn: frame %d has dim %d, want %d", t, len(in), m.InputDim())
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
	}
	tr.opt = NewAdam(tr.params(), cfg.LearningRate)
	return tr, nil
}

func (tr *Trainer) params() [][]float64 {
	out := tr.model.fwd.params()
	out = append(out, tr.model.bwd.params()...)
	out = append(out, tr.model.dense.Data, tr.model.denseBias)
	return out
}

func (tr *Trainer) grads() [][]float64 {
	out := tr.fwdGrads.slices()
	out = append(out, tr.bwdGrads.slices()...)
	out = append(out, tr.denseGrad.Data, tr.denseBiasGrad)
	return out
}

func (tr *Trainer) zeroGrads() {
	tr.fwdGrads.zero()
	tr.bwdGrads.zero()
	tr.denseGrad.Zero()
	for i := range tr.denseBiasGrad {
		tr.denseBiasGrad[i] = 0
	}
}

// both runs f on one forked goroutine and g on the caller's and, once both
// have finished, returns f's error or else g's.
func both(f, g func() error) error {
	var errF error
	done := make(chan struct{})
	go func() {
		defer close(done)
		errF = f()
	}()
	errG := g()
	<-done
	if errF != nil {
		return errF
	}
	return errG
}

// step runs forward+backward on one sequence and applies an update,
// returning the mean cross-entropy loss. The two LSTM directions are
// independent until the dense layer sums them, and their backward passes
// accumulate into separate gradients, so each pass runs its directions
// concurrently; every value is computed as in the serial order, so the
// update is bit-identical to it. Model.Forward stays serial as the
// reference.
func (tr *Trainer) step(seq *Sequence) (float64, error) {
	m := tr.model
	T := len(seq.Inputs)
	if T == 0 {
		return 0, nil
	}
	var fwdTr, bwdTr *lstmTrace
	if err := both(func() (err error) {
		fwdTr, err = m.fwd.forward(seq.Inputs)
		return err
	}, func() (err error) {
		bwdTr, err = m.bwd.forward(reverse(seq.Inputs))
		return err
	}); err != nil {
		return 0, err
	}
	probs, err := m.classify(fwdTr, bwdTr)
	if err != nil {
		return 0, err
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
		// dL/dlogit_k = (p_k - y_k) / T.
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
	if err := both(func() error {
		_, err := m.fwd.backward(fwdTr, dHf, tr.fwdGrads)
		return err
	}, func() error {
		_, err := m.bwd.backward(bwdTr, dHb, tr.bwdGrads)
		return err
	}); err != nil {
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
