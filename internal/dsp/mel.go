package dsp

import (
	"fmt"
	"math"
	"slices"
)

// HzToMel converts a frequency in Hz to the mel scale (O'Shaughnessy).
func HzToMel(hz float64) float64 {
	return 2595 * math.Log10(1+hz/700)
}

// MelToHz converts a mel-scale value back to Hz.
func MelToHz(mel float64) float64 {
	return 700 * (math.Pow(10, mel/2595) - 1)
}

// MelFilterbank is a bank of triangular filters on the mel scale applied to
// a power spectrum.
type MelFilterbank struct {
	filters [][]float64 // filters[c][bin]
	// first[c] and last[c] bound filter c's nonzero weights, so a
	// filter spanning a few bins is applied without scanning all of them.
	first, last []int
	numBins     int
}

// NewMelFilterbank builds numChannels triangular filters spanning
// [lowHz, highHz] for power spectra with numBins bins (fftSize/2+1) at the
// given sample rate.
func NewMelFilterbank(numChannels, fftSize int, sampleRate, lowHz, highHz float64) (*MelFilterbank, error) {
	if numChannels <= 0 {
		return nil, fmt.Errorf("mel: channels %d must be positive", numChannels)
	}
	if highHz <= lowHz || lowHz < 0 {
		return nil, fmt.Errorf("mel: invalid band [%v, %v]", lowHz, highHz)
	}
	if highHz > sampleRate/2 {
		return nil, fmt.Errorf("mel: high edge %vHz above Nyquist %vHz", highHz, sampleRate/2)
	}
	numBins := fftSize/2 + 1
	lowMel, highMel := HzToMel(lowHz), HzToMel(highHz)
	// numChannels+2 edge points.
	edges := make([]float64, numChannels+2)
	for i := range edges {
		mel := lowMel + (highMel-lowMel)*float64(i)/float64(numChannels+1)
		edges[i] = MelToHz(mel)
	}
	binFreq := func(k int) float64 { return BinFrequency(k, fftSize, sampleRate) }
	filters := make([][]float64, numChannels)
	for c := 0; c < numChannels; c++ {
		f := make([]float64, numBins)
		left, center, right := edges[c], edges[c+1], edges[c+2]
		for k := 0; k < numBins; k++ {
			freq := binFreq(k)
			switch {
			case freq >= left && freq <= center && center > left:
				f[k] = (freq - left) / (center - left)
			case freq > center && freq <= right && right > center:
				f[k] = (right - freq) / (right - center)
			}
		}
		// A triangle narrower than one FFT bin can land entirely between
		// bins; give such filters support at the bin nearest their center
		// so no channel is silently dead.
		hasSupport := false
		for _, v := range f {
			if v > 0 {
				hasSupport = true
				break
			}
		}
		if !hasSupport {
			f[FrequencyBin(center, fftSize, sampleRate)] = 1
		}
		filters[c] = f
	}
	first := make([]int, numChannels)
	last := make([]int, numChannels)
	for c, f := range filters {
		first[c], last[c] = 0, -1
		for k, w := range f {
			if w != 0 {
				if last[c] < 0 {
					first[c] = k
				}
				last[c] = k
			}
		}
	}
	return &MelFilterbank{filters: filters, first: first, last: last, numBins: numBins}, nil
}

// LastBin returns the highest power-spectrum bin any channel reads.
func (m *MelFilterbank) LastBin() int { return slices.Max(m.last) }

// NumChannels returns the number of filterbank channels.
func (m *MelFilterbank) NumChannels() int { return len(m.filters) }

// Weights returns channel c's weight over every power-spectrum bin. The
// slice is the filterbank's own storage and must not be modified.
func (m *MelFilterbank) Weights(c int) []float64 { return m.filters[c] }

// Apply computes per-channel filterbank energies from a power spectrum of
// the expected bin count.
func (m *MelFilterbank) Apply(power []float64) ([]float64, error) {
	return m.ApplyInto(nil, power)
}

// ApplyInto computes per-channel filterbank energies into dst and returns
// it. dst is allocated when nil or too small; passing a reused buffer makes
// repeated applications (one per MFCC frame) allocation-free.
func (m *MelFilterbank) ApplyInto(dst, power []float64) ([]float64, error) {
	if len(power) != m.numBins {
		return nil, fmt.Errorf("mel: power spectrum has %d bins, want %d", len(power), m.numBins)
	}
	if cap(dst) < len(m.filters) {
		dst = make([]float64, len(m.filters))
	}
	dst = dst[:len(m.filters)]
	// Only the bins between a filter's first and last nonzero weight are
	// visited. Zero weights are skipped inside that range too, so the sum
	// adds the same terms in the same order as a scan of every bin, and a
	// non-finite power bin under a zero weight never reaches it.
	for c, f := range m.filters {
		sum := 0.0
		for k := m.first[c]; k <= m.last[c]; k++ {
			if w := f[k]; w != 0 {
				sum += w * power[k]
			}
		}
		dst[c] = sum
	}
	return dst, nil
}

// DCT2Table is a precomputed orthonormal type-II discrete cosine transform
// of n inputs that keeps the first NumCoeffs coefficients, as used in MFCC
// pipelines. The cosine of every (coefficient, input) pair is computed once
// at construction, so Apply does no trigonometry. A table is read-only
// after construction and safe for concurrent use.
type DCT2Table struct {
	n, numCoeffs int
	// tab holds input i's cosines in row i and each coefficient's scale in
	// row n; a row is NumCoeffs rounded up to a multiple of 16, zero past
	// NumCoeffs, so a SIMD kernel keeps one coefficient per lane.
	tab []float64
}

// NewDCT2Table builds the table for n inputs. numCoeffs is clamped to n;
// when n or numCoeffs is not positive the table produces no coefficients.
func NewDCT2Table(n, numCoeffs int) *DCT2Table {
	if n <= 0 || numCoeffs <= 0 {
		return &DCT2Table{}
	}
	if numCoeffs > n {
		numCoeffs = n
	}
	m := (numCoeffs + 15) &^ 15
	t := &DCT2Table{n: n, numCoeffs: numCoeffs, tab: make([]float64, (n+1)*m)}
	for k := 0; k < numCoeffs; k++ {
		for i := 0; i < n; i++ {
			t.tab[i*m+k] = math.Cos(math.Pi * float64(k) * (float64(i) + 0.5) / float64(n))
		}
		t.tab[n*m+k] = math.Sqrt(2 / float64(n))
	}
	t.tab[n*m] = math.Sqrt(1 / float64(n))
	return t
}

// NumCoeffs returns how many coefficients Apply produces.
func (t *DCT2Table) NumCoeffs() int { return t.numCoeffs }

// Apply transforms x, which must hold n values, into dst and returns it.
// dst is allocated when too small; a table with no coefficients returns
// nil. Each coefficient sums its n terms in input order, then scales.
func (t *DCT2Table) Apply(dst, x []float64) []float64 {
	if t.numCoeffs == 0 {
		return nil
	}
	if cap(dst) < t.numCoeffs {
		dst = make([]float64, t.numCoeffs)
	}
	dst = dst[:t.numCoeffs]
	kern.dct(dst, x[:t.n], t.tab)
	return dst
}

// dctRows sets dst[k] = (Σ x[i]·tab[i*m+k])·tab[n*m+k] over DCT2Table's
// layout, with n = len(x) and m = len(dst) rounded up to a multiple of 16.
// Each sum runs in input order from 0.
func dctRows(dst, x, tab []float64) {
	m := (len(dst) + 15) &^ 15
	clear(dst)
	for i, v := range x {
		row := tab[i*m:][:len(dst)]
		for k, c := range row {
			dst[k] += v * c
		}
	}
	for k, s := range tab[len(x)*m:][:len(dst)] {
		dst[k] *= s
	}
}
