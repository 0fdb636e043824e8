package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestWindowShapes(t *testing.T) {
	for _, kind := range []WindowKind{WindowHann, WindowHamming, WindowBlackman} {
		w := Window(kind, 64)
		if len(w) != 64 {
			t.Fatalf("%v: len %d", kind, len(w))
		}
		// Endpoints small, middle near 1, all within [0, 1.001].
		if w[32] < 0.9 {
			t.Errorf("%v: center %v too small", kind, w[32])
		}
		for i, v := range w {
			if v < -1e-12 || v > 1.001 {
				t.Errorf("%v[%d] = %v out of range", kind, i, v)
			}
		}
	}
	w := Window(WindowRect, 8)
	for _, v := range w {
		if v != 1 {
			t.Errorf("rect window value %v != 1", v)
		}
	}
	if Window(WindowHann, 0) != nil {
		t.Error("zero-length window should be nil")
	}
}

func TestWindowKindString(t *testing.T) {
	names := map[WindowKind]string{
		WindowHann: "hann", WindowHamming: "hamming",
		WindowRect: "rect", WindowBlackman: "blackman", WindowKind(99): "unknown",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestSTFTToneLandsInRightBin(t *testing.T) {
	const fs = 200.0
	const freq = 50.0
	x := Tone(freq, 1.0, 2.0, fs)
	spec, err := STFT(x, STFTConfig{FFTSize: 64, SampleRate: fs})
	if err != nil {
		t.Fatal(err)
	}
	if spec.NumBins() != 33 {
		t.Fatalf("bins = %d, want 33", spec.NumBins())
	}
	wantBin := FrequencyBin(freq, 64, fs)
	for tIdx := 1; tIdx < spec.NumFrames()-1; tIdx++ {
		best, bestV := 0, 0.0
		for f, v := range spec.Power[tIdx] {
			if v > bestV {
				best, bestV = f, v
			}
		}
		if best != wantBin {
			t.Fatalf("frame %d: peak at bin %d (%.1fHz), want %d (%.1fHz)",
				tIdx, best, spec.BinFrequency(best), wantBin, freq)
		}
	}
}

func TestSTFTFrameCount(t *testing.T) {
	x := make([]float64, 1000)
	spec, err := STFT(x, STFTConfig{FFTSize: 64, HopSize: 32, SampleRate: 200})
	if err != nil {
		t.Fatal(err)
	}
	// 1 + ceil((1000-64)/32) = 1 + 30 = 31
	if spec.NumFrames() != 31 {
		t.Errorf("frames = %d, want 31", spec.NumFrames())
	}
}

func TestSTFTShortSignalZeroPads(t *testing.T) {
	x := []float64{1, 2, 3}
	spec, err := STFT(x, STFTConfig{FFTSize: 64, SampleRate: 200})
	if err != nil {
		t.Fatal(err)
	}
	if spec.NumFrames() != 1 {
		t.Errorf("frames = %d, want 1", spec.NumFrames())
	}
}

func TestSTFTErrors(t *testing.T) {
	if _, err := STFT(nil, STFTConfig{FFTSize: 63, SampleRate: 200}); err == nil {
		t.Error("non-pow2 FFT size should error")
	}
	if _, err := STFT(nil, STFTConfig{FFTSize: 64}); err == nil {
		t.Error("missing sample rate should error")
	}
}

func TestSpectrogramCropBelow(t *testing.T) {
	x := Tone(50, 1, 1, 200)
	spec, err := STFT(x, STFTConfig{FFTSize: 64, SampleRate: 200})
	if err != nil {
		t.Fatal(err)
	}
	before := spec.NumBins()
	cropped := spec.CropBelow(5)
	// Bins at 0Hz and 3.125Hz (bin 1) should be gone: 200/64=3.125 per bin.
	if got, want := before-cropped.NumBins(), 2; got != want {
		t.Errorf("cropped %d bins, want %d", got, want)
	}
	if cropped.BinFrequency(0) != spec.BinFrequency(0) {
		// BinFrequency uses absolute index, so just check values shifted.
		t.Log("bin frequency indexing is relative to original layout by design")
	}
	// Original must be untouched.
	if spec.NumBins() != before {
		t.Error("CropBelow modified the receiver")
	}
}

func TestSpectrogramNormalize(t *testing.T) {
	spec := &Spectrogram{Power: [][]float64{{1, 2}, {4, 3}}, FFTSize: 4, HopSize: 2, SampleRate: 8}
	spec.Normalize()
	if spec.Power[1][0] != 1 {
		t.Errorf("max after normalize = %v, want 1", spec.Power[1][0])
	}
	if spec.Power[0][0] != 0.25 {
		t.Errorf("value = %v, want 0.25", spec.Power[0][0])
	}
	zero := &Spectrogram{Power: [][]float64{{0, 0}}}
	zero.Normalize() // must not panic or divide by zero
	if zero.Power[0][0] != 0 {
		t.Error("zero spectrogram changed by Normalize")
	}
}

func TestSpectrogramNormalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec := &Spectrogram{Power: make([][]float64, 5)}
	for i := range spec.Power {
		row := make([]float64, 9)
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		spec.Power[i] = row
	}
	spec.Normalize()
	snapshot := spec.Clone()
	spec.Normalize()
	for i := range spec.Power {
		for j := range spec.Power[i] {
			if math.Abs(spec.Power[i][j]-snapshot.Power[i][j]) > 1e-12 {
				t.Fatalf("normalize not idempotent at (%d,%d)", i, j)
			}
		}
	}
}

func TestSpectrogramCloneIsDeep(t *testing.T) {
	spec := &Spectrogram{Power: [][]float64{{1, 2}}, FFTSize: 4, HopSize: 2, SampleRate: 8}
	c := spec.Clone()
	c.Power[0][0] = 99
	if spec.Power[0][0] != 1 {
		t.Error("Clone shares backing storage")
	}
}
