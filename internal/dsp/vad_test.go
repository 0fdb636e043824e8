package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// chunkings slices x into chunks per a named strategy.
func chunkings(x []float64, rng *rand.Rand) map[string][][]float64 {
	out := map[string][][]float64{
		"all-at-once": {x},
	}
	one := make([][]float64, 0, len(x))
	for i := range x {
		one = append(one, x[i:i+1])
	}
	out["one-sample"] = one
	const prime = 37
	var pr [][]float64
	for lo := 0; lo < len(x); lo += prime {
		hi := lo + prime
		if hi > len(x) {
			hi = len(x)
		}
		pr = append(pr, x[lo:hi])
	}
	out["prime-37"] = pr
	var rd [][]float64
	for lo := 0; lo < len(x); {
		hi := lo + 1 + rng.Intn(200)
		if hi > len(x) {
			hi = len(x)
		}
		rd = append(rd, x[lo:hi])
		lo = hi
	}
	out["random"] = rd
	// Empty chunks interleaved must be harmless.
	var we [][]float64
	for lo := 0; lo < len(x); lo += 100 {
		hi := lo + 100
		if hi > len(x) {
			hi = len(x)
		}
		we = append(we, nil, x[lo:hi], []float64{})
	}
	out["with-empties"] = we
	return out
}

// referenceVADFrames decides every frame of x the way the VAD gate is
// specified, from the batch STFT of the whole signal: frame t is judged
// on the samples [t*hop, t*hop+256), the high-passed samples over the same
// window, and row t of the spectrogram, with the hangover carried from
// frame to frame.
func referenceVADFrames(t *testing.T, x []float64, sampleRate float64) []bool {
	t.Helper()
	hop := max(int(sampleRate/100), 1)
	spec, err := STFT(x, STFTConfig{FFTSize: vadFFTSize, HopSize: hop, SampleRate: sampleRate})
	if err != nil {
		t.Fatal(err)
	}
	fc := 100.0
	rc := 1 / (2 * math.Pi * fc)
	alpha := rc / (rc + 1/sampleRate)
	hp := make([]float64, len(x))
	for i := 1; i < len(x); i++ {
		hp[i] = alpha * (hp[i-1] + x[i] - x[i-1])
	}
	out := make([]bool, spec.NumFrames())
	hangover := 0
	for f, row := range spec.Power {
		lo := min(f*hop, len(x))
		hi := min(f*hop+vadFFTSize, len(x))
		var band, total float64
		for k := 1; k < len(row); k++ {
			total += row[k]
			if freq := spec.BinFrequency(k); freq >= 80 && freq <= 4000 {
				band += row[k]
			}
		}
		live := hi > lo && rmsOK(x[lo:hi]) && zcrOK(hp[lo:hi]) && total > 0 && band/total >= 0.35
		switch {
		case live:
			hangover = 8
			out[f] = true
		case hangover > 0:
			hangover--
			out[f] = true
		}
	}
	return out
}

// TestVADFramesMatchBatchReference pins the VAD's per-frame decisions, for
// every chunking of speech-like and noisy signals at several sample rates,
// to referenceVADFrames. After each Feed the voiced and gated totals must
// equal the reference's over the frames decided so far, so the one-sample
// chunking, which decides at most one frame per Feed, checks every frame's
// decision; Finish must then decide exactly the batch STFT's frames.
func TestVADFramesMatchBatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sr := range []float64{8000, 16000, 44100} {
		n := int(0.4 * sr)
		tone := voicedTestTone(n, sr, 0.2)
		for i := n / 3; i < n/2; i++ {
			tone[i] = 0 // a silent gap the hangover must bridge and then close
		}
		noise := make([]float64, n+37)
		for i := range noise {
			noise[i] = 0.05 * rng.NormFloat64()
		}
		// A 300 Hz tone fading in over 50 Hz rumble: the frames where the
		// in-band share crosses the spectral gate's bound pass the level
		// and ZCR gates, so the spectrum alone decides them.
		ramp := make([]float64, n)
		for i := range ramp {
			r, ti := float64(i)/float64(n), float64(i)/sr
			ramp[i] = 0.3 * ((1-r)*math.Sin(2*math.Pi*50*ti) + r*math.Sin(2*math.Pi*300*ti))
		}
		for name, x := range map[string][]float64{"tone": tone, "noise": noise, "ramp": ramp, "short": tone[:100]} {
			want := referenceVADFrames(t, x, sr)
			for chunking, chunks := range chunkings(x, rng) {
				v, err := NewVAD(sr)
				if err != nil {
					t.Fatal(err)
				}
				voiced, gated, fed := 0, 0, 0
				check := func(step string) {
					wv := 0
					for _, d := range want[:v.decided] {
						if d {
							wv++
						}
					}
					if voiced != wv || gated != v.decided-wv {
						t.Fatalf("%v Hz %s %s, %s: %d voiced %d gated of %d frames, reference %d voiced",
							sr, name, chunking, step, voiced, gated, v.decided, wv)
					}
				}
				for i, c := range chunks {
					dv, dg := v.Feed(c)
					voiced, gated, fed = voiced+dv, gated+dg, fed+len(c)
					check(fmt.Sprintf("chunk %d", i))
					// A frame is decided as soon as its window is covered.
					if covered := min(max(fed-vadFFTSize+v.hop, 0)/v.hop, len(want)); v.decided != covered {
						t.Fatalf("%v Hz %s %s, chunk %d: %d frames decided after %d samples, %d covered",
							sr, name, chunking, i, v.decided, fed, covered)
					}
				}
				dv, dg := v.Finish()
				voiced, gated = voiced+dv, gated+dg
				if v.decided != len(want) {
					t.Fatalf("%v Hz %s %s: %d frames decided, batch STFT has %d", sr, name, chunking, v.decided, len(want))
				}
				check("Finish")
			}
		}
	}
}

// voicedTestTone synthesizes n samples of a speech-band tone stack (200 Hz
// fundamental plus harmonics) at the given amplitude.
func voicedTestTone(n int, sampleRate, amp float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / sampleRate
		x[i] = amp * (math.Sin(2*math.Pi*200*ti) +
			0.5*math.Sin(2*math.Pi*400*ti) +
			0.25*math.Sin(2*math.Pi*800*ti))
	}
	return x
}

// TestVADGatesSilenceAndRumble: silence, sub-band rumble, and impulsive
// clicks must be gated; a speech-band harmonic stack must pass.
func TestVADGatesSilenceAndRumble(t *testing.T) {
	const sr = 16000.0
	n := int(sr) // one second
	cases := []struct {
		name       string
		audio      []float64
		wantVoiced bool
	}{
		{"silence", make([]float64, n), false},
		{"voiced-tones", voicedTestTone(n, sr, 0.3), true},
		{"rumble-20hz", func() []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = 0.5 * math.Sin(2*math.Pi*20*float64(i)/sr)
			}
			return x
		}(), false},
		{"nyquist-buzz", func() []float64 {
			// Alternating-sign full-band buzz: ZCR ~1, far above the band.
			x := make([]float64, n)
			for i := range x {
				if i%2 == 0 {
					x[i] = 0.3
				} else {
					x[i] = -0.3
				}
			}
			return x
		}(), false},
		{"sub-floor-voice", voicedTestTone(n, sr, 1e-4), false}, // ~-78 dBFS
	}
	for _, tc := range cases {
		v, err := NewVAD(sr)
		if err != nil {
			t.Fatal(err)
		}
		voiced, gated := v.Feed(tc.audio)
		fv, fg := v.Finish()
		voiced += fv
		gated += fg
		if voiced+gated != v.decided {
			t.Errorf("%s: %d voiced + %d gated != %d decided", tc.name, voiced, gated, v.decided)
		}
		if tc.wantVoiced && voiced == 0 {
			t.Errorf("%s: no voiced frames, want some", tc.name)
		}
		// Hangover keeps a trailing tail open, so "unvoiced" signals may
		// still see a handful of voiced frames; require a decisive gate.
		if !tc.wantVoiced && gated < v.decided/2 {
			t.Errorf("%s: only %d of %d frames gated", tc.name, gated, v.decided)
		}
	}
}

// TestVADChunkingInvariant: the voiced/gated totals must not depend on how
// the audio is chunked.
func TestVADChunkingInvariant(t *testing.T) {
	const sr = 16000.0
	rng := rand.New(rand.NewSource(5))
	audio := voicedTestTone(int(sr), sr, 0.2)
	// Silence gap in the middle.
	for i := 4000; i < 8000; i++ {
		audio[i] = 0
	}
	type split struct{ voiced, gated int }
	var results []split
	for _, chunks := range chunkings(audio, rng) {
		v, err := NewVAD(sr)
		if err != nil {
			t.Fatal(err)
		}
		var s split
		for _, c := range chunks {
			dv, dg := v.Feed(c)
			s.voiced += dv
			s.gated += dg
		}
		dv, dg := v.Finish()
		s.voiced += dv
		s.gated += dg
		results = append(results, s)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("chunking changed the VAD outcome: %+v vs %+v", results[i], results[0])
		}
	}
}

// TestVADLifecycle pins that a second Finish decides nothing more and that
// Feed after Finish panics.
func TestVADLifecycle(t *testing.T) {
	v, err := NewVAD(16000)
	if err != nil {
		t.Fatal(err)
	}
	v.Feed(voicedTestTone(1000, 16000, 0.2))
	if voiced, gated := v.Finish(); voiced+gated == 0 {
		t.Fatal("Finish decided no tail frame")
	}
	if voiced, gated := v.Finish(); voiced+gated != 0 {
		t.Fatalf("second Finish decided %d more frames", voiced+gated)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Feed after Finish did not panic")
		}
	}()
	v.Feed([]float64{1})
}

// TestVADRejectsBadSampleRate pins the constructor's one error path.
func TestVADRejectsBadSampleRate(t *testing.T) {
	for _, sr := range []float64{0, -16000, math.NaN()} {
		if _, err := NewVAD(sr); err == nil {
			t.Errorf("sample rate %v accepted", sr)
		}
	}
}
