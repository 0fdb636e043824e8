// Package device models the hardware of the paper's testbed: microphones,
// loudspeakers, the wearable's accelerometer with its measured artifacts
// (aliasing, 0-5 Hz hypersensitivity, low-frequency-driven amplifier
// noise), complete wearables (Fossil Gen 5, Moto 360 2020) and VA devices
// (Google Home, Alexa Echo, MacBook Pro, iPhone) with wake-word
// recognition.
package device

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"vibguard/internal/dsp"
)

// Microphone models a device microphone: a band-limited frequency response,
// an input gain, and a self-noise floor.
type Microphone struct {
	// SampleRate in Hz (16 kHz for all recordings in the paper).
	SampleRate float64
	// Gain is the linear input gain (sensitivity).
	Gain float64
	// NoiseFloorSPL is the equivalent self-noise level in dB SPL.
	NoiseFloorSPL float64
	// LowCutHz and HighCutHz bound the usable band.
	LowCutHz, HighCutHz float64
}

// NewMicrophone returns a typical MEMS microphone at the given sample rate.
func NewMicrophone(sampleRate float64) Microphone {
	return Microphone{
		SampleRate:    sampleRate,
		Gain:          1.0,
		NoiseFloorSPL: 30,
		LowCutHz:      50,
		HighCutHz:     7500,
	}
}

// Validate checks microphone parameters.
func (m *Microphone) Validate() error {
	if err := checkFinite("mic", "sample rate,gain,noise floor,low cut,high cut",
		m.SampleRate, m.Gain, m.NoiseFloorSPL, m.LowCutHz, m.HighCutHz); err != nil {
		return err
	}
	if m.SampleRate <= 0 {
		return fmt.Errorf("device: mic sample rate %v must be positive", m.SampleRate)
	}
	if m.Gain <= 0 {
		return fmt.Errorf("device: mic gain %v must be positive", m.Gain)
	}
	if m.LowCutHz < 0 || m.HighCutHz <= m.LowCutHz || m.HighCutHz > m.SampleRate/2 {
		return fmt.Errorf("device: mic band [%v, %v] invalid for rate %v", m.LowCutHz, m.HighCutHz, m.SampleRate)
	}
	return nil
}

// response is the microphone's magnitude response at frequency f: flat in
// band with smooth roll-offs outside.
func (m *Microphone) response(f float64) float64 {
	switch {
	case f < m.LowCutHz:
		return f / m.LowCutHz
	case f > m.HighCutHz:
		r := 1 - (f-m.HighCutHz)/(m.SampleRate/2-m.HighCutHz)
		if r < 0 {
			return 0
		}
		return r
	default:
		return 1
	}
}

// Record converts an acoustic pressure waveform (already at the mic's
// position) into a recording: band-limits it, applies gain, and adds the
// microphone's own noise floor. The rng drives the self-noise.
func (m *Microphone) Record(pressure []float64, rng *rand.Rand) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	shaped := dsp.FrequencyShape(pressure, m.SampleRate, m.response)
	out := dsp.Scale(shaped, m.Gain)
	floor := dsp.SPLToAmplitude(m.NoiseFloorSPL)
	for i := range out {
		out[i] += floor * rng.NormFloat64()
	}
	return out, nil
}

// Loudspeaker models a playback device: a band-limited response and a mild
// cubic nonlinearity typical of small drivers. It is used both by the
// replay-attack path and by the wearable's built-in speaker during
// cross-domain sensing.
type Loudspeaker struct {
	// SampleRate in Hz.
	SampleRate float64
	// LowCutHz and HighCutHz bound the reproducible band.
	LowCutHz, HighCutHz float64
	// Distortion is the cubic nonlinearity coefficient (0 = ideal).
	Distortion float64
	// Gain is the linear output gain.
	Gain float64
}

// NewLoudspeaker returns the profile of a compact loudspeaker such as the
// Razer Sound Bar RC30 used by the paper's attacks.
func NewLoudspeaker(sampleRate float64) Loudspeaker {
	return Loudspeaker{
		SampleRate: sampleRate,
		LowCutHz:   90,
		HighCutHz:  7000,
		Distortion: 0.02,
		Gain:       1.0,
	}
}

// NewWearableSpeaker returns the profile of a smartwatch's tiny built-in
// speaker: a narrower band and more distortion than a full loudspeaker.
func NewWearableSpeaker(sampleRate float64) Loudspeaker {
	return Loudspeaker{
		SampleRate: sampleRate,
		LowCutHz:   180,
		HighCutHz:  6500,
		Distortion: 0.05,
		Gain:       1.0,
	}
}

// Validate checks loudspeaker parameters.
func (s *Loudspeaker) Validate() error {
	if err := checkFinite("speaker", "sample rate,low cut,high cut,distortion,gain",
		s.SampleRate, s.LowCutHz, s.HighCutHz, s.Distortion, s.Gain); err != nil {
		return err
	}
	if s.SampleRate <= 0 {
		return fmt.Errorf("device: speaker sample rate %v must be positive", s.SampleRate)
	}
	if s.LowCutHz < 0 || s.HighCutHz <= s.LowCutHz || s.HighCutHz > s.SampleRate/2 {
		return fmt.Errorf("device: speaker band [%v, %v] invalid for rate %v", s.LowCutHz, s.HighCutHz, s.SampleRate)
	}
	if s.Distortion < 0 || s.Distortion > 0.5 {
		return fmt.Errorf("device: speaker distortion %v outside [0, 0.5]", s.Distortion)
	}
	return nil
}

// Render converts a digital waveform into the emitted acoustic pressure:
// band-limits it and applies the driver nonlinearity.
func (s *Loudspeaker) Render(x []float64) ([]float64, error) {
	if err := s.Validate(); err != nil || len(x) == 0 {
		return nil, err
	}
	b := dsp.NewShapeBuffer(x)
	defer b.Release()
	s.render(b)
	return slices.Clone(b.Samples()), nil
}

// render is Render in place on the waveform b holds.
func (s *Loudspeaker) render(b dsp.ShapeBuffer) {
	shaped := b.Samples()
	gains := gainTable([5]float64{0, s.LowCutHz, s.HighCutHz, s.SampleRate, float64(dsp.NextPow2(len(shaped)))}, func(f float64) float64 {
		switch {
		case f < s.LowCutHz:
			return math.Pow(f/s.LowCutHz, 2)
		case f > s.HighCutHz:
			r := 1 - (f-s.HighCutHz)/(s.SampleRate/2-s.HighCutHz)
			if r < 0 {
				return 0
			}
			return r
		default:
			return 1
		}
	})
	b.Shape(gains)
	peak := dsp.MaxAbs(shaped)
	if peak == 0 {
		clear(shaped) // the all-zero signal, with any -0 made +0
		return
	}
	dsp.Cubic(shaped, peak, s.Gain, s.Distortion)
}

// checkFinite returns an error naming the first NaN or ±Inf of vals,
// whose comma-separated names come in the same order. Every other check
// of a Validate is a comparison, which NaN passes.
func checkFinite(kind, names string, vals ...float64) error {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("device: %s %s %v must be finite", kind, strings.Split(names, ",")[i], v)
		}
	}
	return nil
}

// gainTables caches the replay's responses sampled at the bins of their
// transform (dsp.GainTable), so a render or drive does not evaluate its
// curve per bin. A key is {kind (0 speaker band, 1 coupling), the curve's
// two parameters, the sample rate, the transform length}; Validate makes
// them finite, so a key always equals itself. A full cache is emptied
// before the next table goes in. Tables are never written.
var gainTables = struct {
	sync.Mutex
	m map[[5]float64][]float64
}{m: map[[5]float64][]float64{}}

const gainTablesMax = 16 // 256 kB a table at m = 65,536

func gainTable(key [5]float64, curve func(freqHz float64) float64) []float64 {
	gainTables.Lock()
	defer gainTables.Unlock()
	t, ok := gainTables.m[key]
	if !ok {
		if len(gainTables.m) >= gainTablesMax {
			clear(gainTables.m)
		}
		t = dsp.GainTable(nil, int(key[4]), key[3], curve)
		gainTables.m[key] = t
	}
	return t
}
