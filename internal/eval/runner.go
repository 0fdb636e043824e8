package eval

import (
	"fmt"
	"math/rand"

	"vibguard/internal/attack"
	"vibguard/internal/core"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/segment"
	"vibguard/internal/sensing"
)

// SpanProvider yields effective-phoneme spans for a sample. The oracle
// provider uses ground-truth alignments; the BRNN provider runs the
// learned detector of Section V-B on the VA recording.
type SpanProvider interface {
	SpansFor(s *Sample) ([]segment.Span, error)
}

// OracleProvider derives spans from the sample's ground-truth alignment.
type OracleProvider struct {
	// Selected is the barrier-effect-sensitive phoneme set.
	Selected map[string]bool
}

var _ SpanProvider = (*OracleProvider)(nil)

// SpansFor returns the aligned selected-phoneme spans, shifted by the
// recording's lead-in context.
func (p *OracleProvider) SpansFor(s *Sample) ([]segment.Span, error) {
	if s.Utterance == nil {
		return nil, fmt.Errorf("eval: sample has no utterance for oracle spans")
	}
	spans := segment.OracleSpans(s.Utterance, p.Selected)
	for i := range spans {
		spans[i].Start += s.LeadSamples
		spans[i].End += s.LeadSamples
	}
	return spans, nil
}

// BRNNProvider runs the trained phoneme detector on the VA recording.
// It is safe for concurrent SpansFor calls: the detector's model weights
// are read-only and its per-call inference scratch is pooled.
type BRNNProvider struct {
	Detector *segment.Detector
}

var _ SpanProvider = (*BRNNProvider)(nil)

// SpansFor detects effective phonemes in the VA recording.
func (p *BRNNProvider) SpansFor(s *Sample) ([]segment.Span, error) {
	frames, err := p.Detector.DetectFrames(s.VARec)
	if err != nil {
		return nil, err
	}
	return p.Detector.Spans(frames), nil
}

// Dataset is a collection of labeled samples.
type Dataset struct {
	// Legit holds the legitimate (no attack) samples.
	Legit []*Sample
	// Attacks maps each attack kind to its samples.
	Attacks map[attack.Kind][]*Sample
}

// DatasetConfig sizes a dataset build.
type DatasetConfig struct {
	// Participants in the voice pool (the paper recruits 20).
	Participants int
	// CommandsPerUser spoken by each legitimate participant.
	CommandsPerUser int
	// AttacksPerKind is the number of attack samples per attack type.
	AttacksPerKind int
	// Kinds restricts the attack kinds (nil means every kind, the paper's
	// four plus the adaptive-adversary extensions).
	Kinds []attack.Kind
	// Conditions to cycle through (nil means the default condition).
	Conditions []Condition
	// Seed drives all randomness.
	Seed int64
}

// BuildDataset generates a dataset.
func BuildDataset(cfg DatasetConfig) (*Dataset, error) {
	if cfg.Participants < 2 || cfg.CommandsPerUser <= 0 || cfg.AttacksPerKind < 0 {
		return nil, fmt.Errorf("eval: invalid dataset config %+v", cfg)
	}
	gen, err := NewGenerator(cfg.Participants, cfg.Seed)
	if err != nil {
		return nil, err
	}
	conditions := cfg.Conditions
	if len(conditions) == 0 {
		conditions = []Condition{DefaultCondition()}
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = attack.Kinds()
	}
	ds := &Dataset{Attacks: make(map[attack.Kind][]*Sample, len(kinds))}
	condIdx := 0
	nextCond := func() Condition {
		c := conditions[condIdx%len(conditions)]
		condIdx++
		return c
	}
	for v := 0; v < cfg.Participants; v++ {
		for c := 0; c < cfg.CommandsPerUser; c++ {
			s, err := gen.Legit(v, v*cfg.CommandsPerUser+c, nextCond())
			if err != nil {
				return nil, err
			}
			ds.Legit = append(ds.Legit, s)
		}
	}
	for _, kind := range kinds {
		for i := 0; i < cfg.AttacksPerKind; i++ {
			victim := i % cfg.Participants
			s, err := gen.Attack(kind, victim, i, nextCond())
			if err != nil {
				return nil, err
			}
			ds.Attacks[kind] = append(ds.Attacks[kind], s)
		}
	}
	return ds, nil
}

// scorerSpec captures everything needed to build one Defense instance for
// scoring: the parallel engine replays it once per worker. The wearable
// is copied by value per build, so every Defense owns an independent
// device model.
type scorerSpec struct {
	method   detector.Method
	wearable *device.Wearable
	provider SpanProvider
	seed     int64
	mutate   func(*sensing.Config)
	noSync   bool
}

func (sp *scorerSpec) validate() error {
	if sp.wearable == nil && sp.method != detector.MethodAudio {
		return fmt.Errorf("eval: method %v needs a wearable", sp.method)
	}
	if sp.provider == nil && sp.method == detector.MethodFull {
		return fmt.Errorf("eval: full method needs a span provider")
	}
	return nil
}

// newDefense builds a fresh, independent Defense from the spec. Spans come
// from the per-sample SpanProvider at score time, so the Defense itself is
// configured without a segmenter.
func (sp *scorerSpec) newDefense() (*core.Defense, error) {
	var w *device.Wearable
	if sp.wearable != nil {
		clone := *sp.wearable // component structs are value types: deep enough
		w = &clone
	}
	cfg := core.DefaultConfig(w, nil)
	cfg.Method = sp.method
	if sp.mutate != nil {
		sp.mutate(&cfg.Sensing)
	}
	if sp.noSync {
		cfg.MaxSyncLagSeconds = 0
	}
	return core.NewDefense(cfg)
}

// SampleSeed derives the RNG seed of sample index from the scorer seed
// using a SplitMix64-style mix, so per-sample random streams are mutually
// decorrelated and — crucially — depend only on (seed, index), never on
// which worker scores the sample or in what order. This is what makes
// parallel scoring bit-identical to sequential scoring.
func SampleSeed(seed int64, index int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// scoreSample runs the pipeline on one sample with the given rng,
// resolving spans through the per-sample provider for MethodFull.
func scoreSample(defense *core.Defense, spec *scorerSpec, s *Sample, rng *rand.Rand) (float64, error) {
	var spans []segment.Span
	if spec.method == detector.MethodFull {
		var err error
		spans, err = spec.provider.SpansFor(s)
		if err != nil {
			return 0, err
		}
	}
	return defense.ScoreWithSpans(s.VARec, s.WearRec, spans, rng)
}

// MethodArm names the three detector arms of every figure, in the order
// the paper plots them.
func MethodArms() []detector.Method {
	return []detector.Method{detector.MethodAudio, detector.MethodVibration, detector.MethodFull}
}

// EvaluateArms scores the dataset's legit samples and the given attack
// samples with all three methods and returns one summary per arm.
func EvaluateArms(ds *Dataset, attackSamples []*Sample, w *device.Wearable, provider SpanProvider, seed int64) ([]Summary, error) {
	summaries := make([]Summary, 0, 3)
	for _, method := range MethodArms() {
		sc, err := NewParallelScorer(method, w, provider, seed)
		if err != nil {
			return nil, err
		}
		s, err := sc.ScoreDataset(method.String(), ds.Legit, attackSamples)
		if err != nil {
			return nil, err
		}
		summaries = append(summaries, s)
	}
	return summaries, nil
}
