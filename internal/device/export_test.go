package device

// MakeDrive and Parts let the external tests build a drive from its
// vibration and noise level and read them back.
func MakeDrive(vib []float64, sigma float64) Drive { return Drive{vib: vib, sigma: sigma} }

func (d Drive) Parts() (vib []float64, sigma float64) { return d.vib, d.sigma }

// Dominance is the low-frequency dominance a drive of audio computes.
func (a *Accelerometer) Dominance(audio []float64, audioRate float64) float64 {
	_, rho := a.conduct(audio, audioRate)
	return rho
}
