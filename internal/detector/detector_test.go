package detector

import (
	"math"
	"math/rand"
	"testing"

	"vibguard/internal/acoustics"
	"vibguard/internal/brnn"
	"vibguard/internal/device"
	"vibguard/internal/phoneme"
	"vibguard/internal/segment"
	"vibguard/internal/selection"
	"vibguard/internal/sensing"
)

func TestMethodString(t *testing.T) {
	names := map[Method]string{
		MethodAudio:     "audio-domain baseline",
		MethodVibration: "vibration-domain baseline",
		MethodFull:      "our defense system",
		Method(0):       "unknown",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	w := device.NewFossilGen5()
	rate := DefaultSampleRate
	cases := []Config{
		{Method: MethodAudio, AudioFFTSize: 100, SampleRate: rate}, // not pow2
		{Method: MethodVibration, SampleRate: rate},                // no wearable
		{Method: MethodFull, Wearable: w},                          // no sample rate
		{Method: Method(9), Wearable: w, SampleRate: rate},         // unknown method
		{Method: MethodFull, Wearable: w, SampleRate: rate, Sensing: sensing.Config{FFTSize: 63}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	good := DefaultConfig(w)
	d, err := New(good)
	if err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	if d.Method() != MethodFull {
		t.Error("method mismatch")
	}
	if d.Threshold() != good.Threshold {
		t.Error("threshold mismatch")
	}
}

func TestDetectUsesThreshold(t *testing.T) {
	d, err := New(DefaultConfig(device.NewFossilGen5()))
	if err != nil {
		t.Fatal(err)
	}
	th := d.Threshold()
	if !d.Detect(th - 0.01) {
		t.Error("score below threshold should flag attack")
	}
	if d.Detect(th + 0.01) {
		t.Error("score above threshold should pass")
	}
}

// scenario builds one legit and one attack pair of recordings.
func scenario(t *testing.T, seed int64) (utt *phoneme.Utterance, legitVA, legitWear, atkVA, atkWear []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	synth, err := phoneme.NewSynthesizer(phoneme.NewStudioVoicePool(1, seed)[0])
	if err != nil {
		t.Fatal(err)
	}
	utt, err = synth.Synthesize(phoneme.Commands()[0])
	if err != nil {
		t.Fatal(err)
	}
	room, err := acoustics.RoomByName("A")
	if err != nil {
		t.Fatal(err)
	}
	transmit := func(spl, dist float64, barrier bool) []float64 {
		p, err := room.Transmit(utt.Samples, acoustics.PathConfig{
			SourceSPL: spl, DistanceM: dist, ThroughBarrier: barrier, SampleRate: 16000,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	legitVA = transmit(72, 1.5, false)
	legitWear = transmit(72, 0.3, false)
	atkVA = transmit(75, 2.1, true)
	atkWear = transmit(75, 2.4, true)
	return utt, legitVA, legitWear, atkVA, atkWear
}

func TestAllMethodsSeparateLegitFromAttack(t *testing.T) {
	utt, legitVA, legitWear, atkVA, atkWear := scenario(t, 3)
	spans := segment.OracleSpans(utt, selection.CanonicalSelected())
	w := device.NewFossilGen5()
	for _, method := range []Method{MethodAudio, MethodVibration, MethodFull} {
		cfg := DefaultConfig(w)
		cfg.Method = method
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		legitScore, err := d.ScoreWithSpans(legitVA, legitWear, spans, rng)
		if err != nil {
			t.Fatal(err)
		}
		attackScore, err := d.ScoreWithSpans(atkVA, atkWear, spans, rng)
		if err != nil {
			t.Fatal(err)
		}
		if legitScore <= attackScore {
			t.Errorf("%v: legit %v not above attack %v", method, legitScore, attackScore)
		}
	}
}

func TestFullScoreNoEffectivePhonemes(t *testing.T) {
	d, err := New(DefaultConfig(device.NewFossilGen5()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	score, err := d.ScoreWithSpans(make([]float64, 16000), make([]float64, 16000), nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if score != -1 {
		t.Errorf("no effective phonemes should score -1, got %v", score)
	}
}

func TestBRNNSegmenterImplementsInterface(t *testing.T) {
	// Compile-time assertions exist; check runtime behaviour with an
	// untrained detector (spans may be arbitrary but must not error).
	det, err := segment.NewDetector(selection.CanonicalSelected(),
		briefModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	seg := &BRNNSegmenter{Detector: det}
	spans, err := seg.EffectiveSpans(make([]float64, 8000))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range spans {
		if sp.End <= sp.Start {
			t.Error("invalid span")
		}
	}
}

func TestAudioScoreErrors(t *testing.T) {
	cfg := Config{Method: MethodAudio, AudioFFTSize: 256, SampleRate: DefaultSampleRate}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ScoreWithSpans(nil, nil, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty VA recording should error")
	}
}

// TestAudioScoreUsesConfiguredRate guards the sample-rate plumbing: the
// audio baseline's 1 kHz/4 kHz band edges must follow Config.SampleRate,
// so the same waveform interpreted at a doubled rate (halving every
// physical frequency under the fixed band edges) must score differently.
func TestAudioScoreUsesConfiguredRate(t *testing.T) {
	mk := func(rate float64) *Detector {
		d, err := New(Config{Method: MethodAudio, AudioFFTSize: 256, SampleRate: rate})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// A 3 kHz tone at 16 kHz: inside the 1-4 kHz high band. The same
	// samples declared as 32 kHz audio contain a 6 kHz tone: outside it.
	x := make([]float64, 4096)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 3000 * float64(i) / 16000)
	}
	rng := rand.New(rand.NewSource(1))
	at16k, err := mk(16000).ScoreWithSpans(x, nil, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	at32k, err := mk(32000).ScoreWithSpans(x, nil, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if at16k <= at32k {
		t.Errorf("3kHz tone: score at 16kHz (%v) should exceed score at 32kHz (%v)", at16k, at32k)
	}
}

// TestDefaultThresholdUnified asserts the single-source-of-truth default:
// DefaultConfig must carry the exported constant, and the constant must be
// the calibrated equal-error value.
func TestDefaultThresholdUnified(t *testing.T) {
	cfg := DefaultConfig(device.NewFossilGen5())
	if cfg.Threshold != DefaultThreshold {
		t.Errorf("DefaultConfig threshold %v != DefaultThreshold %v", cfg.Threshold, DefaultThreshold)
	}
	if DefaultThreshold != 0.45 {
		t.Errorf("DefaultThreshold = %v, want calibrated 0.45", DefaultThreshold)
	}
}

func briefModelCfg() brnn.Config {
	return brnn.Config{InputDim: 14, HiddenDim: 8, NumClasses: 2, Seed: 1}
}

// TestScoreDevicesBitIdenticalToScoreWithSpans pins the shared-work entry
// against one ScoreWithSpans call per wearable: the same score bits, the
// same error, and the same next draw of each rng, for every method. The
// cases cover a wearable whose phoneme cut is empty (the minimum score,
// no draw) beside wearables that are sensed, an empty VA cut, an empty VA
// recording for the audio baseline, and a wearable model whose drive
// fails.
func TestScoreDevicesBitIdenticalToScoreWithSpans(t *testing.T) {
	utt, legitVA, legitWear, atkVA, atkWear := scenario(t, 23)
	spans := segment.OracleSpans(utt, selection.CanonicalSelected())
	broken := device.NewFossilGen5()
	broken.Accel.NoiseCeiling = -1
	cases := []struct {
		name  string
		w     *device.Wearable
		spans []segment.Span
		va    []float64
		wears [][]float64
	}{
		{"legit, three wearables", device.NewFossilGen5(), spans, legitVA, [][]float64{legitWear, atkWear, legitWear[:len(legitWear)/2]}},
		{"attack, two wearables", device.NewMoto360(), spans, atkVA, [][]float64{atkWear, legitWear}},
		{"one empty cut", device.NewFossilGen5(), spans, legitVA, [][]float64{legitWear, legitWear[:1], atkWear}},
		{"no spans", device.NewFossilGen5(), nil, legitVA, [][]float64{legitWear, atkWear}},
		{"empty VA recording", device.NewFossilGen5(), spans, nil, [][]float64{legitWear, atkWear}},
		{"drive fails", broken, spans, legitVA, [][]float64{legitWear, atkWear}},
	}
	for _, method := range []Method{MethodFull, MethodVibration, MethodAudio} {
		for _, tc := range cases {
			t.Run(method.String()+"/"+tc.name, func(t *testing.T) {
				cfg := DefaultConfig(tc.w)
				cfg.Method = method
				d, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rngs := func() []*rand.Rand {
					r := make([]*rand.Rand, len(tc.wears))
					for i := range r {
						r[i] = rand.New(rand.NewSource(int64(50 + i)))
					}
					return r
				}
				together, alone := rngs(), rngs()
				scores, errs := d.ScoreDevices(tc.va, tc.wears, tc.spans, together)
				for i, wear := range tc.wears {
					want, wantErr := d.ScoreWithSpans(tc.va, wear, tc.spans, alone[i])
					if (errs[i] == nil) != (wantErr == nil) || (wantErr != nil && errs[i].Error() != wantErr.Error()) {
						t.Fatalf("device %d: error %v, alone %v", i, errs[i], wantErr)
					}
					if math.Float64bits(scores[i]) != math.Float64bits(want) {
						t.Errorf("device %d: score %v, alone %v", i, scores[i], want)
					}
					if g, w := together[i].Int63(), alone[i].Int63(); g != w {
						t.Errorf("device %d: rng next draw %d, alone %d", i, g, w)
					}
				}
			})
		}
	}
}
