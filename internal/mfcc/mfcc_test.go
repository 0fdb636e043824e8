package mfcc

import (
	"math"
	"testing"

	"vibguard/internal/dsp"
	"vibguard/internal/phoneme"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.FrameLength != 0.025 || cfg.FrameShift != 0.010 {
		t.Error("frame geometry should be 25ms/10ms (Section V-B)")
	}
	if cfg.NumFilters != 40 || cfg.NumCoeffs != 14 {
		t.Error("want 40 filterbank channels and 14 coefficients")
	}
	if cfg.HighHz != 900 {
		t.Error("band should top out at 900Hz for thru-barrier robustness")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.SampleRate = 0 },
		func(c *Config) { c.FrameLength = 0 },
		func(c *Config) { c.FrameShift = -1 },
		func(c *Config) { c.FrameShift = 1e-6 },  // 0.016 samples at 16 kHz
		func(c *Config) { c.FrameLength = 5e-5 }, // 0.8 samples at 16 kHz
		func(c *Config) { c.NumFilters = 0 },
		func(c *Config) { c.NumCoeffs = 0 },
		func(c *Config) { c.NumCoeffs = 100 },
		func(c *Config) { c.HighHz = 0 },
		func(c *Config) { c.HighHz = 9000 },
		func(c *Config) { c.PreEmphasis = 1.5 },
		func(c *Config) { c.PreEmphasis = -0.1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

// TestConfigValidationRejectsNaN sets NaN in each float field in turn: a
// comparison with NaN is false, so a check written as x <= 0 would let it
// through (a NaN FrameShift built an extractor whose FrameShift() read
// math.MinInt64, a NaN PreEmphasis turned pre-emphasis off).
func TestConfigValidationRejectsNaN(t *testing.T) {
	fields := map[string]func(*Config) *float64{
		"SampleRate":  func(c *Config) *float64 { return &c.SampleRate },
		"FrameLength": func(c *Config) *float64 { return &c.FrameLength },
		"FrameShift":  func(c *Config) *float64 { return &c.FrameShift },
		"HighHz":      func(c *Config) *float64 { return &c.HighHz },
		"PreEmphasis": func(c *Config) *float64 { return &c.PreEmphasis },
	}
	for name, field := range fields {
		cfg := DefaultConfig()
		*field(&cfg) = math.NaN()
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s NaN passed validation", name)
		}
		if _, err := NewExtractor(cfg); err == nil {
			t.Errorf("%s NaN built an extractor", name)
		}
	}
}

func TestExtractorGeometry(t *testing.T) {
	e, err := NewExtractor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e.FrameLength() != 400 {
		t.Errorf("frame length = %d, want 400 (25ms at 16kHz)", e.FrameLength())
	}
	if e.FrameShift() != 160 {
		t.Errorf("frame shift = %d, want 160 (10ms at 16kHz)", e.FrameShift())
	}
}

func TestExtractFrameCountAndShape(t *testing.T) {
	e, err := NewExtractor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	audio := dsp.Tone(300, 0.1, 1.0, 16000) // 16000 samples
	frames, err := e.Extract(audio)
	if err != nil {
		t.Fatal(err)
	}
	want := e.NumFrames(16000) // 1 + (16000-400)/160 = 98
	if len(frames) != want || want != 98 {
		t.Errorf("frames = %d, NumFrames = %d, want 98", len(frames), want)
	}
	for i, f := range frames {
		if len(f) != 14 {
			t.Fatalf("frame %d has %d coeffs", i, len(f))
		}
		for j, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("frame %d coeff %d not finite", i, j)
			}
		}
	}
}

func TestExtractShortSignal(t *testing.T) {
	e, err := NewExtractor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	frames, err := e.Extract(make([]float64, 100))
	if err != nil {
		t.Fatal(err)
	}
	if frames != nil {
		t.Errorf("short signal produced %d frames", len(frames))
	}
}

func TestExtractSilenceIsFinite(t *testing.T) {
	e, err := NewExtractor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	frames, err := e.Extract(make([]float64, 4000))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		for _, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("silence produced non-finite MFCC")
			}
		}
	}
}

func TestMFCCDiscriminatesPhonemeClasses(t *testing.T) {
	// The whole point of MFCC features: different phonemes produce
	// separable vectors, same phonemes cluster.
	e, err := NewExtractor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	synth, err := phoneme.NewSynthesizer(phoneme.NewVoicePool(1, 3)[0])
	if err != nil {
		t.Fatal(err)
	}
	meanVec := func(sym string) []float64 {
		seg, err := synth.PhonemeDur(sym, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := e.Extract(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) == 0 {
			t.Fatalf("%s produced no frames", sym)
		}
		mean := make([]float64, len(frames[0]))
		for _, f := range frames {
			for i, v := range f {
				mean[i] += v
			}
		}
		for i := range mean {
			mean[i] /= float64(len(frames))
		}
		return mean
	}
	dist := func(a, b []float64) float64 {
		sum := 0.0
		for i := range a {
			d := a[i] - b[i]
			sum += d * d
		}
		return math.Sqrt(sum)
	}
	ae1 := meanVec("ae")
	ae2 := meanVec("ae")
	s1 := meanVec("s")
	if dist(ae1, s1) < 2*dist(ae1, ae2) {
		t.Errorf("vowel/fricative distance %v not >> same-phoneme distance %v",
			dist(ae1, s1), dist(ae1, ae2))
	}
}

// TestExtractOneFrameMatchesFirstFrame checks that a signal exactly one
// frame long yields one vector, equal bit for bit to the first frame of a
// longer signal that starts with the same samples.
func TestExtractOneFrameMatchesFirstFrame(t *testing.T) {
	e, err := NewExtractor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	audio := dsp.Tone(300, 0.1, 0.05, 16000)
	long, err := e.Extract(audio)
	if err != nil {
		t.Fatal(err)
	}
	one, err := e.Extract(audio[:e.FrameLength()])
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || len(one[0]) != 14 {
		t.Fatalf("one-frame signal gave %d frames", len(one))
	}
	for j, v := range one[0] {
		if v != long[0][j] {
			t.Fatalf("coeff %d = %v, want %v", j, v, long[0][j])
		}
	}
}
