// Package dsp provides the digital signal processing primitives that the
// rest of the system is built on: FFT/IFFT for arbitrary lengths, windowed
// short-time analysis, IIR/FIR filtering, correlation (1D and 2D), the
// DCT-II used by MFCC extraction, mel filterbanks, resampling, and test
// signal generators.
//
// Everything is implemented from scratch on float64 slices using only the
// standard library, so the package has no external dependencies and is
// deterministic across platforms.
//
// All transforms run on the planned FFT engine (see plan.go): bit-reversal
// permutations and twiddle tables are precomputed once per power-of-two
// length and cached process-wide, so repeated transforms of the same size —
// the normal case in every pipeline stage — do no trigonometric work and no
// table allocation. Bluestein chirp filters for other lengths are built
// per direction on first use and kept in a small cache of the most
// recently used lengths, since arbitrary lengths seldom repeat.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes the discrete Fourier transform of x.
//
// The input may have any length: power-of-two lengths use a planned
// iterative radix-2 Cooley-Tukey transform, and all other lengths fall back
// to Bluestein's chirp-z algorithm (also planned). The input slice is not
// modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		return mustPlanFFT(n).Forward(nil, x)
	}
	return planBluestein(n).transform(x, false)
}

// IFFT computes the inverse discrete Fourier transform of x, including the
// 1/N normalization, so that IFFT(FFT(x)) == x up to rounding error.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		return mustPlanFFT(n).Inverse(nil, x)
	}
	out := planBluestein(n).transform(x, true)
	inv := 1 / float64(n)
	for i := range out {
		out[i] = complex(real(out[i])*inv, imag(out[i])*inv)
	}
	return out
}

// mustPlanRealFFT is PlanRealFFT for lengths already known to be powers of
// two.
func mustPlanRealFFT(n int) *RealFFTPlan {
	p, err := PlanRealFFT(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Magnitude returns |x| for each bin of a complex spectrum. The plain
// sqrt(re^2+im^2) form is used instead of cmplx.Abs: the overflow-guarded
// hypot is measurably slower on the hot path and spectra of unit-scale
// audio never approach the ~1e154 squaring overflow bound.
func Magnitude(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		re, im := real(v), imag(v)
		out[i] = math.Sqrt(re*re + im*im)
	}
	return out
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

// LowBandPower returns two sums over PowerSpectrum(x), the exact-length
// power spectrum: low over bins 1..cut (clamped to len(x)/2) and total over
// bins 1..len(x)/2. An even-length signal is packed as x[2j] + i·x[2j+1]
// into one len(x)/2-point chirp-z transform, a NextPow2(len(x)-1)-point
// convolution instead of NextPow2(2·len(x)-1), of which only bins 1..cut
// are unpacked, and allocates nothing. Its total is Parseval's, (n·sum x²
// - X(0)² + X(n/2)²)/2, which a strong DC component leaves with only the
// precision that survives the subtraction. Odd lengths sum PowerSpectrum.
func LowBandPower(x []float64, cut int) (low, total float64) {
	n := len(x)
	cut = min(cut, n/2)
	if n%2 == 1 || n == 0 {
		for k, v := range PowerSpectrum(x) {
			if k == 0 {
				continue // DC is in neither sum
			}
			total += v
			if k <= cut {
				low += v
			}
		}
		return low, total
	}
	h := n / 2
	bp := planBluestein(h)
	chirp, filt := bp.tables(false)
	buf := bp.plan.getScratch()
	defer bp.plan.putScratch(buf)
	a := *buf
	for k, c := range chirp {
		a[bp.plan.perm[k]] = complex(x[2*k], x[2*k+1]) * c
	}
	bp.convolve(a, filt)
	invM := complex(1/float64(bp.m), 0)
	z := func(k int) complex128 { // bin k of the packed transform
		k %= h
		return a[k] * chirp[k] * invM
	}
	z0 := z(0)
	dc, nyq := real(z0)+imag(z0), real(z0)-imag(z0)
	for k := 1; k <= cut; k++ {
		// X(k) = E(k) + e^{-2πik/n}·O(k), unpacked as in shapeHalf.
		zk, zj := z(k), cmplx.Conj(z(h-k))
		e := (zk + zj) * complex(0.5, 0)
		o := (zk - zj) * complex(0, -0.5)
		v := e + cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n))*o
		low += real(v)*real(v) + imag(v)*imag(v)
	}
	sq := 0.0
	for _, v := range x {
		sq += v * v
	}
	return low, (float64(n)*sq - dc*dc + nyq*nyq) / 2
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
