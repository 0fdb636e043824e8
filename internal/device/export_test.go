package device

import "vibguard/internal/dsp"

// MakeDrive and Parts let the external tests build a drive from its
// vibration and noise level and read them back.
func MakeDrive(vib []float64, sigma float64) Drive { return Drive{vib: vib, sigma: sigma} }

func (d Drive) Parts() (vib []float64, sigma float64) { return d.vib, d.sigma }

// Dominance is the low-frequency dominance a drive of audio computes.
func (a *Accelerometer) Dominance(audio []float64, audioRate float64) float64 {
	_, rho := a.conductOf(audio, audioRate)
	return rho
}

// conductOf is conduct on a buffer holding audio; empty audio has no
// vibration and dominance 0.
func (a *Accelerometer) conductOf(audio []float64, audioRate float64) ([]float64, float64) {
	if len(audio) == 0 {
		return nil, 0
	}
	b := dsp.NewShapeBuffer(audio)
	defer b.Release()
	return a.conduct(b, audioRate, func() []float64 { return audio })
}
