// Package dsp provides the digital signal processing primitives that the
// rest of the system is built on: planned FFTs, spectra of any length, windowed
// short-time analysis, IIR/FIR filtering, correlation (1D and 2D), the
// DCT-II used by MFCC extraction, mel filterbanks, resampling, and test
// signal generators.
//
// Everything is implemented from scratch on float64 slices using only the
// standard library, so the package has no external dependencies and is
// deterministic across platforms.
//
// All transforms run on the planned FFT engine (see plan.go): bit-reversal
// index maps and twiddle tables are precomputed once per power-of-two
// length and cached process-wide, so repeated transforms of the same size —
// the normal case in every pipeline stage — do no trigonometric work and no
// table allocation. Bluestein chirp filters for the spectra of other
// lengths are built on first use and kept in a small cache of the most
// recently used lengths, since arbitrary lengths seldom repeat.
package dsp

import (
	"fmt"
	"math"
)

// mustPlanRealFFT is PlanRealFFT for lengths already known to be powers of
// two.
func mustPlanRealFFT(n int) *RealFFTPlan {
	p, err := PlanRealFFT(n)
	if err != nil {
		panic(err)
	}
	return p
}

// MagnitudeSpectrum computes the single-sided magnitude spectrum of a real
// signal: len(x)/2+1 bins covering 0..fs/2. Bin k corresponds to frequency
// k*fs/len(x).
func MagnitudeSpectrum(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		return mustPlanRealFFT(n).MagnitudeInto(nil, x, nil)
	}
	return planBluestein(n).reduceInto(x, true)
}

// PowerSpectrum computes the single-sided power spectrum |X(k)|^2 of a real
// signal, with the same bin layout as MagnitudeSpectrum.
func PowerSpectrum(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		return mustPlanRealFFT(n).PowerInto(nil, x, nil)
	}
	return planBluestein(n).reduceInto(x, false)
}

// BinFrequency returns the center frequency in Hz of FFT bin k for a
// transform of length n over a signal sampled at rate fs.
func BinFrequency(k, n int, fs float64) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) * fs / float64(n)
}

// FrequencyBin returns the FFT bin index closest to frequency f for a
// transform of length n over a signal sampled at fs. The result is clamped
// to [0, n/2].
func FrequencyBin(f float64, n int, fs float64) int {
	if fs <= 0 || n == 0 {
		return 0
	}
	k := int(math.Round(f * float64(n) / fs))
	if k < 0 {
		k = 0
	}
	if k > n/2 {
		k = n / 2
	}
	return k
}

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 0).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ValidateLength returns an error if n is not a positive power of two. It is
// used by transforms that require radix-2 lengths at their API boundary.
func ValidateLength(n int) error {
	if n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: length %d is not a positive power of two", n)
	}
	return nil
}
