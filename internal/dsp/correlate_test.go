package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEstimateDelayRecoversShift(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	signal := make([]float64, 2000)
	for i := range signal {
		signal[i] = rng.NormFloat64()
	}
	for _, shift := range []int{0, 7, 100, 500} {
		// b contains `shift` samples of noise, then the signal: the wearable
		// started recording `shift` samples before the command content that
		// the VA recording a starts with.
		b := make([]float64, shift+len(signal))
		for i := 0; i < shift; i++ {
			b[i] = 0.01 * rng.NormFloat64()
		}
		copy(b[shift:], signal)
		got := EstimateDelay(signal, b, 600)
		if got != shift {
			t.Errorf("shift %d: estimated %d", shift, got)
		}
	}
}

// oneRow wraps a vector as a one-frame spectrogram, so Correlate2D is the
// plain Pearson coefficient of two vectors.
func oneRow(x []float64) *Spectrogram { return &Spectrogram{Power: [][]float64{x}} }

func TestCorrelate2DKnownValues(t *testing.T) {
	a := oneRow([]float64{1, 2, 3, 4})
	if r := Correlate2D(a, a); math.Abs(r-1) > 1e-12 {
		t.Errorf("self correlation = %v, want 1", r)
	}
	neg := oneRow([]float64{4, 3, 2, 1})
	if r := Correlate2D(a, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("anti correlation = %v, want -1", r)
	}
	if r := Correlate2D(a, oneRow([]float64{5, 5, 5, 5})); r != 0 {
		t.Errorf("constant spectrogram correlation = %v, want 0", r)
	}
}

// Property: the correlation is always in [-1, 1] and symmetric.
func TestCorrelate2DProperty(t *testing.T) {
	f := func(pairs []struct{ A, B float64 }) bool {
		if len(pairs) < 2 {
			return true
		}
		a := make([]float64, len(pairs))
		b := make([]float64, len(pairs))
		for i, p := range pairs {
			av, bv := p.A, p.B
			if math.IsNaN(av) || math.IsInf(av, 0) {
				av = 0
			}
			if math.IsNaN(bv) || math.IsInf(bv, 0) {
				bv = 0
			}
			a[i] = math.Mod(av, 1e6)
			b[i] = math.Mod(bv, 1e6)
		}
		r := Correlate2D(oneRow(a), oneRow(b))
		if r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		return math.Abs(r-Correlate2D(oneRow(b), oneRow(a))) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the correlation is invariant under positive affine transforms.
func TestCorrelate2DAffineInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		scale := rng.Float64()*10 + 0.1
		offset := rng.NormFloat64() * 5
		a2 := make([]float64, n)
		for i := range a {
			a2[i] = a[i]*scale + offset
		}
		if math.Abs(Correlate2D(oneRow(a), oneRow(b))-Correlate2D(oneRow(a2), oneRow(b))) > 1e-9 {
			t.Fatalf("trial %d: affine transform changed correlation", trial)
		}
	}
}

func TestCorrelate2DIdenticalSpectrograms(t *testing.T) {
	spec := &Spectrogram{Power: [][]float64{{1, 2, 3}, {4, 5, 6}}}
	if r := Correlate2D(spec, spec.Clone()); math.Abs(r-1) > 1e-12 {
		t.Errorf("identical spectrograms correlation = %v, want 1", r)
	}
}

func TestCorrelate2DNoiseLowersCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := &Spectrogram{Power: make([][]float64, 20)}
	for i := range base.Power {
		row := make([]float64, 33)
		for j := range row {
			row[j] = math.Abs(rng.NormFloat64())
		}
		base.Power[i] = row
	}
	noisy := base.Clone()
	for i := range noisy.Power {
		for j := range noisy.Power[i] {
			noisy.Power[i][j] += math.Abs(rng.NormFloat64()) * 3
		}
	}
	clean := Correlate2D(base, base.Clone())
	dirty := Correlate2D(base, noisy)
	if dirty >= clean {
		t.Errorf("noise did not reduce correlation: clean %v, noisy %v", clean, dirty)
	}
}

func TestCorrelate2DMismatchedSizesUsesOverlap(t *testing.T) {
	a := &Spectrogram{Power: [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}}
	b := &Spectrogram{Power: [][]float64{{1, 2}, {4, 5}}}
	r := Correlate2D(a, b)
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("overlap correlation = %v, want 1", r)
	}
}

func TestCorrelate2DNil(t *testing.T) {
	if r := Correlate2D(nil, nil); r != 0 {
		t.Errorf("nil correlation = %v, want 0", r)
	}
	empty := &Spectrogram{}
	if r := Correlate2D(empty, empty); r != 0 {
		t.Errorf("empty correlation = %v, want 0", r)
	}
}

func TestQuartile3(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if q := Quartile3(x); q != 4 {
		t.Errorf("Q3 = %v, want 4", q)
	}
	if q := Quartile3(nil); q != 0 {
		t.Errorf("Q3(nil) = %v, want 0", q)
	}
	if q := Quartile3([]float64{7}); q != 7 {
		t.Errorf("Q3 single = %v, want 7", q)
	}
}

func TestPercentileDoesNotModifyInput(t *testing.T) {
	x := []float64{3, 1, 2}
	Percentile(x, 0.5)
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestPercentileBounds(t *testing.T) {
	x := []float64{10, 20, 30}
	if p := Percentile(x, 0); p != 10 {
		t.Errorf("p0 = %v", p)
	}
	if p := Percentile(x, 1); p != 30 {
		t.Errorf("p1 = %v", p)
	}
	if p := Percentile(x, 0.5); p != 20 {
		t.Errorf("p50 = %v", p)
	}
	if p := Percentile(x, -1); p != 10 {
		t.Errorf("clamped low = %v", p)
	}
	if p := Percentile(x, 2); p != 30 {
		t.Errorf("clamped high = %v", p)
	}
}

func TestStatHelpers(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
	if e := Energy([]float64{3, 4}); e != 25 {
		t.Errorf("Energy = %v", e)
	}
	if r := RMS([]float64{3, 4}); math.Abs(r-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %v", r)
	}
	if r := RMS(nil); r != 0 {
		t.Errorf("RMS(nil) = %v", r)
	}
	if m := MaxAbs([]float64{-5, 3}); m != 5 {
		t.Errorf("MaxAbs = %v", m)
	}
}

// TestEstimateDelayFFTExactEquality demands exactly equal delay estimates
// from the FFT path and the direct loop on a seeded corpus of shifted
// noise recordings — the Eq. (5) sync must not move by even one sample
// when the engine changes.
func TestEstimateDelayFFTExactEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		n := 500 + rng.Intn(4000)
		shift := rng.Intn(800)
		maxLag := 800 + rng.Intn(400)
		sig := make([]float64, n)
		for i := range sig {
			sig[i] = rng.NormFloat64()
		}
		b := make([]float64, shift+n)
		for i := 0; i < shift; i++ {
			b[i] = 0.01 * rng.NormFloat64()
		}
		copy(b[shift:], sig)
		direct := EstimateDelayRange(sig, b, 0, maxLag)
		fft := EstimateDelayFFT(sig, b, maxLag)
		if fft != direct {
			t.Fatalf("trial %d (n=%d shift=%d maxLag=%d): fft %d, direct %d",
				trial, n, shift, maxLag, fft, direct)
		}
		if disp := EstimateDelay(sig, b, maxLag); disp != direct {
			t.Fatalf("trial %d: dispatched %d, direct %d", trial, disp, direct)
		}
	}
}

// TestEstimateDelayFFTSteadyStateAllocationFree pins the pooled transform
// buffer: after a warm-up call has populated the plan cache and the
// sync.Pool, the delay search must not allocate. (The pool hands back a
// dirty buffer, so this also exercises the re-zeroing path against a
// fresh computation of the same inputs.)
func TestEstimateDelayFFTSteadyStateAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := make([]float64, 4000)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	b := make([]float64, 4300)
	copy(b[300:], a)
	want := EstimateDelayFFT(a, b, 800) // warm plan cache + pool
	if want != 300 {
		t.Fatalf("delay = %d, want 300", want)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := EstimateDelayFFT(a, b, 800); got != want {
			t.Errorf("pooled rerun delay = %d, want %d", got, want)
		}
	})
	if allocs != 0 {
		t.Errorf("EstimateDelayFFT allocated %.1f times per run, want 0", allocs)
	}
}

func TestEstimateDelayFFTDegenerateInputs(t *testing.T) {
	if got := EstimateDelayFFT(nil, []float64{1, 2}, 3); got != 0 {
		t.Errorf("empty a: lag %d, want 0", got)
	}
	if got := EstimateDelayFFT([]float64{1, 2}, []float64{1, 2}, -1); got != 0 {
		t.Errorf("negative maxLag: lag %d, want 0", got)
	}
	if got := EstimateDelayFFT([]float64{1}, []float64{-1, 2}, 1); got != 1 {
		t.Errorf("single-sample a: lag %d, want 1", got)
	}
	if got := EstimateDelays([]float64{1, 2}, [][]float64{nil, {1, 2}}, []int{3, -2}); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("EstimateDelays on an empty b and a negative maxLag: %v, want [0 0]", got)
	}
}

func TestEstimateDelayRange(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	// Range clamping must not panic and must respect bounds.
	if got := EstimateDelayRange(a, a, -5, -1); got != 0 {
		t.Errorf("clamped range = %d", got)
	}
	if got := EstimateDelayRange(a, a, 2, 1); got != 2 {
		t.Errorf("inverted range = %d", got)
	}
}

// delayCase builds a VA-side signal a of n samples and a wearable-side b
// of nb samples whose content starts at lead: shifted noise (a clear
// peak), a narrowband tone, DC, or silence, a scaled by sa and b by sb.
func delayCase(shape string, n, nb, lead int, sa, sb float64, seed int64) (a, b []float64) {
	rng := rand.New(rand.NewSource(seed))
	src := make([]float64, lead+n+nb)
	for i := range src {
		switch shape {
		case "noise":
			src[i] = rng.NormFloat64()
		case "tone":
			src[i] = math.Sin(2 * math.Pi * 1000 * float64(i) / 16000)
		case "dc":
			src[i] = 1
		}
	}
	a = make([]float64, n)
	for i := range a {
		a[i] = src[lead+i] * sa
	}
	b = make([]float64, nb)
	for i := range b {
		v := src[i]
		if shape == "noise" && i < lead {
			v *= 0.01
		}
		b[i] = v * sb
	}
	return a, b
}

// directCorr is Corr(tau) = sum_n a[n]*b[n+tau] for tau in [0, maxLag],
// summed in EstimateDelayRange's order, so its first argmax is
// EstimateDelayRange(a, b, 0, maxLag).
func directCorr(a, b []float64, maxLag int) []float64 {
	out := make([]float64, maxLag+1)
	for tau := range out {
		if tau >= len(b) {
			break
		}
		sum := 0.0
		for n, v := range a[:min(len(a), len(b)-tau)] {
			sum += v * b[n+tau]
		}
		out[tau] = sum
	}
	return out
}

// TestEstimateDelayFFTMatchesDirectSweep is the contract of the delay
// search on real-input transforms, on every butterfly kernel: over
// lengths from 1 to 70,000, wearable recordings longer and shorter than
// the VA one, shifted noise, a 1 kHz tone, DC and silence, at scales 1,
// 1e150, 1e-150 and 1e150 against 1e-150, it returns the direct loop's
// lag (EstimateDelayRange over 0..maxLag). Where the correlations of
// several lags tie within rounding, any of them is right: DC against a
// longer recording ties at every lag, and past the end of a short signal
// every lag is a rounding-level zero. The lag returned must then
// correlate within 1e-9·‖a‖‖b‖ of the direct maximum. Shifted noise has
// one clear peak and must match exactly, as must the session shape, a
// 45,040-sample VA recording against 1,600 samples of lead over 8,000
// lags.
func TestEstimateDelayFFTMatchesDirectSweep(t *testing.T) {
	type tc struct {
		shape         string
		n, nb, lead   int
		maxLag        int
		sa, sb        float64
		mustMatchLead bool
	}
	var cases []tc
	for _, n := range []int{1, 2, 3, 64, 65, 1000, 4096, 45041, 70000} {
		lead := min(n, 300)
		for _, nb := range []int{n + lead, n/3 + 1} {
			maxLag := min(nb-1, 2*lead+1)
			for _, shape := range []string{"noise", "tone", "dc", "zero"} {
				for _, sc := range [][2]float64{{1, 1}, {1e150, 1e150}, {1e-150, 1e-150}, {1e150, 1e-150}} {
					cases = append(cases, tc{shape, n, nb, lead, maxLag, sc[0], sc[1],
						shape == "noise" && nb > n && n >= 64})
				}
			}
		}
	}
	cases = append(cases, tc{"noise", 45040, 45040 + 1600, 1600, 8000, 1, 1, true})
	for i, c := range cases {
		a, b := delayCase(c.shape, c.n, c.nb, c.lead, c.sa, c.sb, int64(i))
		corr := directCorr(a, b, c.maxLag)
		want := 0
		for tau, v := range corr {
			if v > corr[want] {
				want = tau
			}
		}
		tol := 1e-9 * math.Sqrt(Energy(a)) * math.Sqrt(Energy(b))
		if c.mustMatchLead && want != c.lead {
			t.Fatalf("%+v: direct lag %d, want the lead %d", c, want, c.lead)
		}
		forEachButterflies(t, func(t *testing.T) {
			got := EstimateDelayFFT(a, b, c.maxLag)
			if got == want {
				return
			}
			if c.mustMatchLead || got < 0 || got > c.maxLag || !(corr[got] >= corr[want]-tol) {
				t.Fatalf("%+v: lag %d (corr %g), direct %d (corr %g, tie tolerance %g)",
					c, got, corr[max(0, min(got, c.maxLag))], want, corr[want], tol)
			}
		})
	}
}

// TestEstimateDelaysSharedSpectrumPerLength pins the shared VA spectrum:
// EstimateDelays gives every search the lag EstimateDelay gives it alone,
// when the searches need two different transform lengths (65,536 and
// 131,072 points, interleaved so the second use of a length finds its
// spectrum) and when one falls below the crossover to the direct loop.
func TestEstimateDelaysSharedSpectrumPerLength(t *testing.T) {
	a, near := delayCase("noise", 45040, 45040+1600, 1600, 1, 1, 1)
	far := append(make([]float64, 30000), a...)
	bs := [][]float64{near, far, near[:3000], far, near}
	maxLags := []int{8000, 30000, 4, 30000, 2000}
	if corrFFTLength(len(a), len(near), 8000) == corrFFTLength(len(a), len(far), 30000) {
		t.Fatal("the two searches share a transform length")
	}
	if useFFTCorrelation(len(a), 3000, 4) {
		t.Fatal("the short search takes the transform path")
	}
	got := EstimateDelays(a, bs, maxLags)
	for i, b := range bs {
		if want := EstimateDelay(a, b, maxLags[i]); got[i] != want {
			t.Errorf("search %d: lag %d, alone %d", i, got[i], want)
		}
	}
	if got[0] != 1600 || got[1] != 30000 {
		t.Errorf("lags %v, want 1600 and 30000 first", got)
	}
}
