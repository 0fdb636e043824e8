package sensing

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"vibguard/internal/device"
	"vibguard/internal/dsp"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.FFTSize != 64 {
		t.Error("STFT size should be 64 (Section VI-B)")
	}
	if cfg.CropHz != 5 {
		t.Error("crop should remove <= 5Hz (accelerometer artifact)")
	}
	if !cfg.Normalize {
		t.Error("max-normalization should be on (Section VI-C)")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.FFTSize = 63 },
		func(c *Config) { c.FFTSize = 0 },
		func(c *Config) { c.HopSize = -1 },
		func(c *Config) { c.CropHz = -1 },
		func(c *Config) { c.CropHz = 150 },
		func(c *Config) { c.HighPassHz = 150 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestExtractFeaturesShape(t *testing.T) {
	vib := dsp.Tone(30, 0.01, 2.0, device.AccelSampleRate)
	feat, err := ExtractFeatures(vib, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 64-point FFT at 200Hz: 33 bins, minus bins 0 and 1 (0 and 3.125Hz).
	if feat.NumBins() != 31 {
		t.Errorf("bins = %d, want 31 after 5Hz crop", feat.NumBins())
	}
	if feat.NumFrames() == 0 {
		t.Error("no frames")
	}
}

func TestExtractFeaturesCropRemovesArtifact(t *testing.T) {
	// A strong 2Hz drift plus a 30Hz tone: after the crop the 2Hz content
	// must be gone.
	cfg := DefaultConfig()
	cfg.Normalize = false
	cfg.BinStandardize = false
	cfg.HighPassHz = 0 // isolate the crop's effect
	drift := dsp.Tone(2, 0.3, 4.0, device.AccelSampleRate)
	tone := dsp.Tone(40, 0.3, 4.0, device.AccelSampleRate)
	feat, err := ExtractFeatures(dsp.Mix(drift, tone), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The huge drift lives below 5Hz; after cropping, the strongest
	// remaining bin should be near 30Hz, not at the lowest kept bin.
	bestBin, bestV := 0, 0.0
	mid := feat.NumFrames() / 2
	for k, v := range feat.Power[mid] {
		if v > bestV {
			bestBin, bestV = k, v
		}
	}
	// Bin k in the cropped spectrogram corresponds to (k+2)*3.125 Hz.
	freq := float64(bestBin+2) * device.AccelSampleRate / 64
	if math.Abs(freq-40) > 5 {
		t.Errorf("dominant frequency after crop = %vHz, want ~40", freq)
	}
}

func TestExtractFeaturesNormalized(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BinStandardize = false
	vib := dsp.Tone(40, 5.0, 2.0, device.AccelSampleRate)
	feat, err := ExtractFeatures(vib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := feat.MaxValue(); math.Abs(m-1) > 1e-9 {
		t.Errorf("max after normalization = %v, want 1", m)
	}
}

func TestBinStandardizeRemovesStationaryShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Normalize = false
	// A stationary tone: after bin standardization each bin's temporal
	// mean is zero.
	vib := dsp.Tone(40, 1.0, 4.0, device.AccelSampleRate)
	feat, err := ExtractFeatures(vib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < feat.NumBins(); k++ {
		sum := 0.0
		for _, row := range feat.Power {
			sum += row[k]
		}
		mean := sum / float64(feat.NumFrames())
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("bin %d temporal mean = %v, want 0", k, mean)
		}
	}
}

func TestSenseFeaturesEndToEnd(t *testing.T) {
	w := device.NewFossilGen5()
	rng := rand.New(rand.NewSource(1))
	audio := dsp.Mix(dsp.Tone(300, 0.05, 1.5, 16000), dsp.Tone(2000, 0.05, 1.5, 16000))
	feat, err := SenseFeatures(w, audio, DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if feat.NumFrames() == 0 || feat.NumBins() != 31 {
		t.Errorf("features %dx%d", feat.NumFrames(), feat.NumBins())
	}
}

func TestSameAudioSensedTwiceCorrelates(t *testing.T) {
	// The core cross-domain property: two sensing passes of the same
	// broadband audio yield highly correlated features, because broadband
	// sound is captured at high SNR.
	w := device.NewFossilGen5()
	audio := dsp.Mix(dsp.Tone(1900, 0.08, 2.0, 16000), dsp.Tone(2600, 0.05, 2.0, 16000), dsp.Tone(3500, 0.06, 2.0, 16000))
	// Amplitude-modulate so there is temporal structure to correlate.
	for i := range audio {
		audio[i] *= 0.5 + 0.5*math.Sin(2*math.Pi*3*float64(i)/16000)
	}
	f1, err := SenseFeatures(w, audio, DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := SenseFeatures(w, audio, DefaultConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if r := dsp.Correlate2D(f1, f2); r < 0.7 {
		t.Errorf("repeated sensing correlation = %v, want >= 0.7", r)
	}
}

// A steady-state sensing pass allocates only the slices its stages return
// (the rendered sound and the much shorter vibration-rate signals and
// features): the shaping transforms borrow their scratch from per-size
// pools, and the speaker applies its nonlinearity in place.
func TestSenseFeaturesSteadyStateAllocatesOnlyResults(t *testing.T) {
	const n = 45040 // a replay-segment length, not a power of two
	w := device.NewFossilGen5()
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	audio := make([]float64, n)
	for i := range audio {
		audio[i] = math.Sin(2*math.Pi*440*float64(i)/16000) + 0.1*rng.NormFloat64()
	}
	// Warm the plans and the pools;
	// hold the collector off so it cannot empty the pools mid-measurement.
	if _, err := SenseFeatures(w, audio, cfg, rng); err != nil {
		t.Fatal(err)
	}
	// A pass can miss a pool and allocate a fresh buffer: after moving to
	// another P (pools cache per P), or when the race detector drops a Put
	// on purpose (a quarter of them), so the least any pass allocates is
	// pinned. A pass returns four buffers to pools; 20 passes all missing
	// under -race has odds below 1e-3.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perPass := uint64(math.MaxUint64)
	for i := 0; i < 20; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := SenseFeatures(w, audio, cfg, rng); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perPass = min(perPass, after.TotalAlloc-before.TotalAlloc)
	}
	// Two audio-rate signals and one half spectrum of float64s, plus 64 KiB
	// for everything at the 200 Hz vibration rate. One pooled 65536-point
	// complex buffer alone would be 1 MiB.
	limit := uint64(8*(2*n+n/2+1) + 64<<10)
	if perPass > limit {
		t.Errorf("steady-state pass allocates %d B, want <= %d B (returned slices only)", perPass, limit)
	}
}
