package brnn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
)

// Model is the paper's bidirectional phoneme detector: a forward LSTM and
// a backward LSTM over the MFCC sequence whose hidden states are summed
// per frame (Eq. 4) and classified by a dense softmax layer with
// NumClasses outputs (2 for effective-phoneme detection).
type Model struct {
	inputDim, hiddenDim, numClasses int

	fwd, bwd *lstmCell
	// dense is (numClasses x hiddenDim); denseBias is (numClasses).
	dense     *Matrix
	denseBias []float64
}

// Config describes the model architecture.
type Config struct {
	// InputDim is the per-frame feature dimension (14 MFCCs).
	InputDim int
	// HiddenDim is the LSTM width per direction (64 in the paper).
	HiddenDim int
	// NumClasses is the softmax width (2 for binary detection).
	NumClasses int
	// Seed drives weight initialization.
	Seed int64
}

// DefaultConfig returns the paper's architecture for 14-dimensional MFCC
// inputs.
func DefaultConfig() Config {
	return Config{InputDim: 14, HiddenDim: 64, NumClasses: 2, Seed: 1}
}

// Validate checks the architecture parameters.
func (c *Config) Validate() error {
	if c.InputDim <= 0 || c.HiddenDim <= 0 || c.NumClasses < 2 {
		return fmt.Errorf("brnn: invalid architecture %+v", *c)
	}
	return nil
}

// New creates a randomly initialized model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Model{
		inputDim:   cfg.InputDim,
		hiddenDim:  cfg.HiddenDim,
		numClasses: cfg.NumClasses,
		fwd:        newLSTMCell(cfg.InputDim, cfg.HiddenDim, rng),
		bwd:        newLSTMCell(cfg.InputDim, cfg.HiddenDim, rng),
		dense:      NewMatrixRandom(cfg.NumClasses, cfg.HiddenDim, rng),
		denseBias:  make([]float64, cfg.NumClasses),
	}, nil
}

// InputDim returns the expected per-frame feature dimension.
func (m *Model) InputDim() int { return m.inputDim }

// HiddenDim returns the LSTM width per direction.
func (m *Model) HiddenDim() int { return m.hiddenDim }

// NumClasses returns the softmax width.
func (m *Model) NumClasses() int { return m.numClasses }

// reverse returns a reversed copy of a sequence (shallow: frame slices are
// shared).
func reverse(seq [][]float64) [][]float64 {
	out := make([][]float64, len(seq))
	for i, v := range seq {
		out[len(seq)-1-i] = v
	}
	return out
}

// Forward computes per-frame class probabilities for an input sequence
// with the per-frame reference kernels (one MulVec per timestep, fresh
// buffers). It is the checked reference the batched path is pinned
// against; hot paths should use NewInference, whose results are
// bit-identical without the per-timestep allocations.
func (m *Model) Forward(inputs [][]float64) ([][]float64, error) {
	probs, _, _, err := m.forwardFull(inputs)
	return probs, err
}

func (m *Model) forwardFull(inputs [][]float64) ([][]float64, *lstmTrace, *lstmTrace, error) {
	if len(inputs) == 0 {
		return nil, nil, nil, nil
	}
	fwdTr, err := m.fwd.forward(inputs)
	if err != nil {
		return nil, nil, nil, err
	}
	bwdTr, err := m.bwd.forward(reverse(inputs))
	if err != nil {
		return nil, nil, nil, err
	}
	probs, err := m.classify(fwdTr, bwdTr)
	if err != nil {
		return nil, nil, nil, err
	}
	return probs, fwdTr, bwdTr, nil
}

// classify turns the hidden states of both directions into per-frame
// class probabilities: the dense layer over their sum, then a softmax.
func (m *Model) classify(fwdTr, bwdTr *lstmTrace) ([][]float64, error) {
	T := len(fwdTr.hidden)
	probs := make([][]float64, T)
	combined := make([]float64, m.hiddenDim)
	for t := 0; t < T; t++ {
		hf := fwdTr.hidden[t]
		hb := bwdTr.hidden[T-1-t]
		for j := 0; j < m.hiddenDim; j++ {
			combined[j] = hf[j] + hb[j]
		}
		p := make([]float64, m.numClasses)
		if err := m.dense.MulVec(combined, p); err != nil {
			return nil, err
		}
		softmax(p, m.denseBias)
		probs[t] = p
	}
	return probs, nil
}

// softmax turns the logits in p into probabilities in place, adding bias
// first. Every forward path and the training step share it, so their
// probabilities round alike.
func softmax(p, bias []float64) {
	maxL := math.Inf(-1)
	for k, v := range p {
		if v+bias[k] > maxL {
			maxL = v + bias[k]
		}
	}
	sum := 0.0
	for k, v := range p {
		p[k] = math.Exp(v + bias[k] - maxL)
		sum += p[k]
	}
	for k := range p {
		p[k] /= sum
	}
}

// Predict returns the argmax class per frame.
func (m *Model) Predict(inputs [][]float64) ([]int, error) {
	probs, err := m.Forward(inputs)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(probs))
	for t, p := range probs {
		best := 0
		for k, v := range p {
			if v > p[best] {
				best = k
			}
		}
		out[t] = best
	}
	return out, nil
}

// serializable mirrors Model for gob encoding.
type serializable struct {
	InputDim, HiddenDim, NumClasses int
	FwdWx, FwdWh, BwdWx, BwdWh      []float64
	FwdB, BwdB                      []float64
	Dense, DenseBias                []float64
}

// MarshalBinary serializes the model weights.
func (m *Model) MarshalBinary() ([]byte, error) {
	s := serializable{
		InputDim: m.inputDim, HiddenDim: m.hiddenDim, NumClasses: m.numClasses,
		FwdWx: m.fwd.wx.Data, FwdWh: m.fwd.wh.Data, FwdB: m.fwd.b,
		BwdWx: m.bwd.wx.Data, BwdWh: m.bwd.wh.Data, BwdB: m.bwd.b,
		Dense: m.dense.Data, DenseBias: m.denseBias,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		return nil, fmt.Errorf("brnn: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// DimError reports a serialized weight slice whose length does not match
// the architecture dims carried in the same blob — a truncated or corrupt
// model file. Before this check, a short slice would copy partially over
// fresh random init and yield a silently-wrong model.
type DimError struct {
	// Field names the weight slice (e.g. "FwdWx").
	Field string
	// Got and Want are the decoded and required lengths.
	Got, Want int
}

func (e *DimError) Error() string {
	return fmt.Sprintf("brnn: serialized %s has %d values, want %d", e.Field, e.Got, e.Want)
}

// validate checks every weight slice against the architecture dims.
func (s *serializable) validate() error {
	d, h, c := s.InputDim, s.HiddenDim, s.NumClasses
	for _, f := range []struct {
		name string
		got  int
		want int
	}{
		{"FwdWx", len(s.FwdWx), 4 * h * d},
		{"FwdWh", len(s.FwdWh), 4 * h * h},
		{"FwdB", len(s.FwdB), 4 * h},
		{"BwdWx", len(s.BwdWx), 4 * h * d},
		{"BwdWh", len(s.BwdWh), 4 * h * h},
		{"BwdB", len(s.BwdB), 4 * h},
		{"Dense", len(s.Dense), c * h},
		{"DenseBias", len(s.DenseBias), c},
	} {
		if f.got != f.want {
			return &DimError{Field: f.name, Got: f.got, Want: f.want}
		}
	}
	return nil
}

// UnmarshalBinary restores model weights serialized by MarshalBinary. The
// architecture dims are validated first, then every weight slice length
// is checked against them (DimError on mismatch), so a truncated or
// corrupt blob fails loudly instead of yielding a silently-wrong model.
func (m *Model) UnmarshalBinary(data []byte) error {
	var s serializable
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return fmt.Errorf("brnn: decode: %w", err)
	}
	restored, err := New(Config{InputDim: s.InputDim, HiddenDim: s.HiddenDim, NumClasses: s.NumClasses, Seed: 1})
	if err != nil {
		return err
	}
	if err := s.validate(); err != nil {
		return err
	}
	copy(restored.fwd.wx.Data, s.FwdWx)
	copy(restored.fwd.wh.Data, s.FwdWh)
	copy(restored.fwd.b, s.FwdB)
	copy(restored.bwd.wx.Data, s.BwdWx)
	copy(restored.bwd.wh.Data, s.BwdWh)
	copy(restored.bwd.b, s.BwdB)
	copy(restored.dense.Data, s.Dense)
	copy(restored.denseBias, s.DenseBias)
	*m = *restored
	return nil
}
