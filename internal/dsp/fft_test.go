package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// fftOfReal is the full complex spectrum of a real signal.
func fftOfReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of [1, 0, 0, 0] is all-ones.
	out := FFT([]complex128{1, 0, 0, 0})
	for i, v := range out {
		if cmplx.Abs(v-1) > eps {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
	// FFT of a constant is an impulse at DC.
	out = FFT([]complex128{2, 2, 2, 2})
	if cmplx.Abs(out[0]-8) > eps {
		t.Errorf("DC bin = %v, want 8", out[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(out[i]) > eps {
			t.Errorf("bin %d = %v, want 0", i, out[i])
		}
	}
}

func TestFFTSineBinLocation(t *testing.T) {
	const n = 256
	const k = 17
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(k) * float64(i) / n)
	}
	mag := Magnitude(fftOfReal(x))
	// Expect peaks exactly at bins k and n-k of height n/2.
	for i := 0; i < n; i++ {
		want := 0.0
		if i == k || i == n-k {
			want = n / 2
		}
		if !approxEqual(mag[i], want, 1e-6) {
			t.Errorf("bin %d magnitude = %v, want %v", i, mag[i], want)
		}
	}
}

func TestFFTRoundTripPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 8, 64, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		back := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-8 {
				t.Fatalf("n=%d: roundtrip[%d] = %v, want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestFFTRoundTripArbitraryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 7, 12, 100, 441, 1000} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		back := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-7 {
				t.Fatalf("n=%d: roundtrip[%d] = %v, want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestBluesteinMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 13
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	got := FFT(x)
	for k := 0; k < n; k++ {
		var want complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k*j) / float64(n)
			want += x[j] * cmplx.Rect(1, angle)
		}
		if cmplx.Abs(got[k]-want) > 1e-8 {
			t.Errorf("bin %d = %v, want %v", k, got[k], want)
		}
	}
}

// Property: Parseval's theorem — energy in time domain equals energy in the
// frequency domain divided by N.
func TestFFTParsevalProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 512 {
			vals = vals[:512]
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				vals[i] = math.Mod(v, 1000)
				if math.IsNaN(vals[i]) {
					vals[i] = 0
				}
			}
		}
		timeEnergy := Energy(vals)
		spec := fftOfReal(vals)
		freqEnergy := 0.0
		for _, v := range spec {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= float64(len(vals))
		tol := 1e-6 * (1 + timeEnergy)
		return math.Abs(timeEnergy-freqEnergy) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: FFT is linear.
func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		n := 1 << (1 + rng.Intn(8))
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = a[i] + b[i]
		}
		fa, fb, fsum := FFT(a), FFT(b), FFT(sum)
		for i := 0; i < n; i++ {
			if cmplx.Abs(fsum[i]-(fa[i]+fb[i])) > 1e-8 {
				t.Fatalf("n=%d bin %d: FFT(a+b) != FFT(a)+FFT(b)", n, i)
			}
		}
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5}
	orig := make([]complex128, len(x))
	copy(orig, x)
	FFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("input modified at %d", i)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if out := FFT(nil); out != nil {
		t.Errorf("FFT(nil) = %v, want nil", out)
	}
	if out := IFFT(nil); out != nil {
		t.Errorf("IFFT(nil) = %v, want nil", out)
	}
}

// TestMagnitudeLargeBins covers the cmplx.Abs -> sqrt(re^2+im^2) swap:
// the plain form must stay exact for bins far beyond any audio scale
// (squaring overflows only past ~1.3e154, which spectra of unit-scale
// signals never approach).
func TestMagnitudeLargeBins(t *testing.T) {
	x := []complex128{
		complex(3e150, 4e150),
		complex(-3e150, 4e150),
		complex(0, -7e152),
		complex(1e-150, 0), // squaring still in range; ~1e-154 is the floor
		0,
	}
	want := []float64{5e150, 5e150, 7e152, 1e-150, 0}
	got := Magnitude(x)
	for i := range want {
		if want[i] == 0 {
			if got[i] != 0 {
				t.Errorf("bin %d: |0| = %v", i, got[i])
			}
			continue
		}
		if math.Abs(got[i]-want[i]) > 1e-12*want[i] {
			t.Errorf("bin %d: magnitude %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMagnitudeSpectrumBins(t *testing.T) {
	x := make([]float64, 128)
	spec := MagnitudeSpectrum(x)
	if len(spec) != 65 {
		t.Errorf("got %d bins, want 65", len(spec))
	}
}

func TestBinFrequencyRoundTrip(t *testing.T) {
	const n, fs = 1024, 16000.0
	for _, f := range []float64{0, 100, 500, 1000, 7999} {
		k := FrequencyBin(f, n, fs)
		back := BinFrequency(k, n, fs)
		if math.Abs(back-f) > fs/float64(n) {
			t.Errorf("f=%v: bin %d maps back to %v", f, k, back)
		}
	}
	if FrequencyBin(-5, n, fs) != 0 {
		t.Error("negative frequency should clamp to bin 0")
	}
	if FrequencyBin(1e9, n, fs) != n/2 {
		t.Error("huge frequency should clamp to Nyquist bin")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-1: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestValidateLength(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64, 4096} {
		if err := ValidateLength(n); err != nil {
			t.Errorf("ValidateLength(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{0, -4, 3, 5, 100} {
		if err := ValidateLength(n); err == nil {
			t.Errorf("ValidateLength(%d) = nil, want error", n)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkBluestein1000(b *testing.B) {
	x := make([]complex128, 1000)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
